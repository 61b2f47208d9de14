type loss = Timeout | Dup_ack

type instance = {
  name : string;
  window : unit -> float;
  on_ack : bytes:int -> rtt:float option -> unit;
  on_loss : loss -> unit;
  on_ecn : unit -> unit;
}

type algo = { algo_name : string; create : mss:int -> now:(unit -> float) -> instance }

let reno =
  {
    algo_name = "reno";
    create =
      (fun ~mss ~now:_ ->
        let fmss = Float.of_int mss in
        let cwnd = ref (10. *. fmss) in
        let ssthresh = ref infinity in
        let halve () =
          ssthresh := Float.max (2. *. fmss) (!cwnd /. 2.);
          cwnd := !ssthresh
        in
        {
          name = "reno";
          window = (fun () -> !cwnd);
          on_ack =
            (fun ~bytes ~rtt:_ ->
              if !cwnd < !ssthresh then cwnd := !cwnd +. Float.of_int bytes
              else cwnd := !cwnd +. (fmss *. fmss /. !cwnd));
          on_loss =
            (function
            | Dup_ack -> halve ()
            | Timeout ->
                ssthresh := Float.max (2. *. fmss) (!cwnd /. 2.);
                cwnd := fmss);
          on_ecn = halve;
        });
  }

let cubic =
  {
    algo_name = "cubic";
    create =
      (fun ~mss ~now ->
        let fmss = Float.of_int mss in
        let c = 0.4 and beta = 0.7 in
        let cwnd = ref (10. *. fmss) in
        let w_max = ref !cwnd in
        let epoch = ref None in
        let ssthresh = ref infinity in
        let cubic_window () =
          match !epoch with
          | None -> !cwnd
          | Some t0 ->
              let t = now () -. t0 in
              let k = Float.cbrt (!w_max *. (1. -. beta) /. (c *. fmss)) in
              let wt = (c *. fmss *. ((t -. k) ** 3.)) +. !w_max in
              Float.max (2. *. fmss) wt
        in
        let on_loss_common () =
          w_max := !cwnd;
          cwnd := Float.max (2. *. fmss) (!cwnd *. beta);
          ssthresh := !cwnd;
          epoch := None
        in
        {
          name = "cubic";
          window = (fun () -> !cwnd);
          on_ack =
            (fun ~bytes ~rtt:_ ->
              if !cwnd < !ssthresh then cwnd := !cwnd +. Float.of_int bytes
              else begin
                if !epoch = None then epoch := Some (now ());
                let target = cubic_window () in
                if target > !cwnd then
                  (* Approach the cubic target over roughly one RTT of acks. *)
                  cwnd := !cwnd +. ((target -. !cwnd) *. Float.of_int bytes /. !cwnd)
                else cwnd := !cwnd +. (0.01 *. fmss *. Float.of_int bytes /. !cwnd)
              end);
          on_loss =
            (function
            | Dup_ack -> on_loss_common ()
            | Timeout ->
                on_loss_common ();
                cwnd := fmss);
          on_ecn = on_loss_common;
        });
  }

let vegas =
  {
    algo_name = "vegas";
    create =
      (fun ~mss ~now:_ ->
        let fmss = Float.of_int mss in
        let cwnd = ref (4. *. fmss) in
        let base_rtt = ref infinity in
        let alpha = 2. and beta = 4. in
        {
          name = "vegas";
          window = (fun () -> !cwnd);
          on_ack =
            (fun ~bytes:_ ~rtt ->
              match rtt with
              | None -> ()
              | Some sample ->
                  if sample < !base_rtt then base_rtt := sample;
                  if Float.is_finite !base_rtt && sample > 0. then begin
                    (* diff = (expected - actual) * base_rtt, in segments *)
                    let expected = !cwnd /. !base_rtt in
                    let actual = !cwnd /. sample in
                    let diff = (expected -. actual) *. !base_rtt /. fmss in
                    if diff < alpha then cwnd := !cwnd +. (fmss *. fmss /. !cwnd)
                    else if diff > beta then
                      cwnd := Float.max (2. *. fmss) (!cwnd -. (fmss *. fmss /. !cwnd))
                  end);
          on_loss =
            (function
            | Dup_ack -> cwnd := Float.max (2. *. fmss) (!cwnd *. 0.75)
            | Timeout -> cwnd := 2. *. fmss);
          on_ecn = (fun () -> cwnd := Float.max (2. *. fmss) (!cwnd *. 0.75));
        });
  }

let fixed n =
  {
    algo_name = Printf.sprintf "fixed-%d" n;
    create =
      (fun ~mss ~now:_ ->
        let w = Float.of_int (n * mss) in
        {
          name = Printf.sprintf "fixed-%d" n;
          window = (fun () -> w);
          on_ack = (fun ~bytes:_ ~rtt:_ -> ());
          on_loss = (fun _ -> ());
          on_ecn = (fun () -> ());
        });
  }

let aimd ~alpha ~beta =
  {
    algo_name = Printf.sprintf "aimd-%.1f-%.2f" alpha beta;
    create =
      (fun ~mss ~now:_ ->
        let fmss = Float.of_int mss in
        let cwnd = ref (2. *. fmss) in
        {
          name = "aimd";
          window = (fun () -> !cwnd);
          on_ack =
            (fun ~bytes ~rtt:_ -> cwnd := !cwnd +. (alpha *. fmss *. Float.of_int bytes /. !cwnd));
          on_loss = (fun _ -> cwnd := Float.max fmss (!cwnd *. beta));
          on_ecn = (fun () -> cwnd := Float.max fmss (!cwnd *. beta));
        });
  }

let all = [ reno; cubic; vegas; fixed 8; aimd ~alpha:1.0 ~beta:0.5 ]

type instruments = {
  acks : Sublayer.Stats.counter;
  losses : Sublayer.Stats.counter;
  ecn_marks : Sublayer.Stats.counter;
  cwnd : Sublayer.Stats.gauge;
}

(* Resolved once per scope: every connection on a shared registry holds
   the same record. *)
let instruments =
  Sublayer.Stats.memo (fun sc ->
      let open Sublayer.Stats in
      { acks = counter sc "acks"; losses = counter sc "losses";
        ecn_marks = counter sc "ecn_marks"; cwnd = gauge sc "cwnd_bytes" })

(* Wrap an instance's callbacks so any algorithm is observable without
   touching its implementation: signal counters plus a cwnd gauge sampled
   after every event that can move the window. *)
let instrument sc inst =
  let open Sublayer.Stats in
  let { acks; losses; ecn_marks; cwnd } = memoised instruments sc in
  let update () = set cwnd (int_of_float (inst.window ())) in
  update ();
  {
    inst with
    on_ack =
      (fun ~bytes ~rtt ->
        incr acks;
        inst.on_ack ~bytes ~rtt;
        update ());
    on_loss =
      (fun kind ->
        incr losses;
        inst.on_loss kind;
        update ());
    on_ecn =
      (fun () ->
        incr ecn_marks;
        inst.on_ecn ();
        update ());
  }
