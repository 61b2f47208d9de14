(* The four workloads. Every launch is open loop on the virtual clock: flow
   (or frame) [i] is scheduled at [i * spacing] whatever has completed, so
   the generator is never late, and its completion time is counted from
   that scheduled instant. Completions are sampled on 10 ms soak slices.

   One rep builds everything from the seed (set-up), then runs the engine
   to quiescence (the run phase). Untraced reps use the library's own
   factories; a traced rep swaps in the timed copies from {!Stacks}. *)

open Transport

type rep = {
  setup_s : float;
  run_s : float;  (** wall time of the run phase *)
  events : int;
  vtime : float;  (** virtual time when the last flow finished *)
  attempted : int;
  exact : int;  (** flows (frames) delivered byte-exact *)
  payload : int;  (** bytes delivered exactly *)
  fct : float array;  (** per-flow completion time, virtual seconds *)
  active_vtime : float;  (** virtual time from first launch to last completion *)
  minor_words : int;  (** run phase *)
  copied : int;  (** [Bitkit.Slice.copied_bytes] over the run phase *)
  snapshot : Sublayer.Stats.snapshot;
  live_hwm : int;
  pool_hwm : int;
  pool_overruns : int;
}

let pdus_of snapshot name =
  List.fold_left
    (fun acc (k, v) -> if k = name then acc + v else acc)
    0 snapshot

(* What every rep of one workload and seed must reproduce exactly,
   compared with [compare] so that a flow that never finished (a [nan]
   completion time) still equals itself. *)
let fingerprint r = (r.events, r.vtime, r.attempted, r.exact, r.fct, r.snapshot)

let slice = 0.01

let secs_since t0 = float_of_int (Timing.now_ns () - t0) *. 1e-9

let payloads ~seed ~n ~bytes =
  let rng = Bitkit.Rng.create seed in
  Array.init n (fun _ -> String.init bytes (fun _ -> Char.chr (Bitkit.Rng.int rng 256)))

(* [Sim.Workload.run] with per-flow completion times sampled at every
   slice boundary. Allocation-free per slice, so the sampling does not
   show up in the run phase's minor words. *)
let run_flows ~engine ~flows ~spacing (ops : Sim.Workload.ops) =
  let base = Sim.Engine.now engine in
  let fct = Array.make flows Float.nan in
  let active = Array.make flows 0 and n_active = ref 0 and next = ref 0 in
  let on_slice now =
    while !next < flows && base +. (float_of_int !next *. spacing) <= now do
      active.(!n_active) <- !next;
      incr n_active;
      incr next
    done;
    let k = ref 0 in
    for j = 0 to !n_active - 1 do
      let f = active.(j) in
      if ops.flow_finished f then fct.(f) <- now -. (base +. (float_of_int f *. spacing))
      else begin
        active.(!k) <- f;
        incr k
      end
    done;
    n_active := !k
  in
  let r =
    Sim.Workload.run ~spacing ~step:slice ~until:900. ~on_slice ~name:"perf" ~engine
      ~flows ops
  in
  let last = ref 0. in
  Array.iteri
    (fun f t -> if Float.is_finite t then last := Float.max !last (t +. (float_of_int f *. spacing)))
    fct;
  (r, fct, !last)

(* The run phase: wall time, minor words and copied bytes around [f],
   with the traced rep's layer accounts starting from zero. *)
let measure f =
  Timing.reset ();
  Bitkit.Slice.reset_copied ();
  let w0 = Gc.minor_words () in
  let t0 = Timing.now_ns () in
  let x = f () in
  let run_s = secs_since t0 in
  let w1 = Gc.minor_words () in
  (x, run_s, Float.to_int (w1 -. w0), Bitkit.Slice.copied_bytes ())

let flow_rep ~setup_s ~bytes ~stats ~pool (run : unit -> Sim.Workload.report * float array * float) =
  let (r, fct, active_vtime), run_s, minor_words, copied = measure run in
  {
    setup_s; run_s;
    events = r.Sim.Workload.soak.Sim.Soak.events_fired;
    vtime = r.Sim.Workload.soak.Sim.Soak.vtime;
    attempted = r.Sim.Workload.flows;
    exact = r.Sim.Workload.exact;
    payload = r.Sim.Workload.exact * bytes;
    fct; active_vtime; minor_words; copied;
    snapshot = Sublayer.Stats.snapshot stats;
    live_hwm = r.Sim.Workload.live_hwm;
    pool_hwm = (match pool with Some p -> Bitkit.Pool.hwm p | None -> 0);
    pool_overruns = (match pool with Some p -> Bitkit.Pool.overruns p | None -> 0);
  }

let spacing = 0.005
let wan = { (Sim.Channel.lossy 0.01) with Sim.Channel.delay = 0.02 }

(* DM ports are 16-bit and [Fabric] serves flow [f] on [1024 + 2f], so
   flow 32 255 is the last one whose ports both fit. [Fabric.create]
   does not reject more; the flows beyond never finish and the run
   quietly soaks to its virtual deadline. *)
let max_fabric_flows = 32_255

let fabric ~flows ~bytes ~timed ~seed =
  if flows > max_fabric_flows then
    invalid_arg
      (Printf.sprintf "fabric workload: %d flows exceeds the %d that 16-bit ports allow"
         flows max_fabric_flows);
  let t0 = Timing.now_ns () in
  let engine = Sim.Engine.create ~seed ~backend:`Wheel () in
  let stats = Sublayer.Stats.create ~label:"perf" () in
  let pool = Bitkit.Pool.create ~slots:4096 ~slot_bytes:2048 () in
  let config, factory =
    if timed then (Stacks.L0.config, Some Stacks.L0.factory) else (Config.default, None)
  in
  let fab =
    Fabric.create engine ~hosts:8 ~config ?factory ~stats ~pool ~seed ~channel:wan
      ~flows ~bytes ()
  in
  let setup_s = secs_since t0 in
  flow_rep ~setup_s ~bytes ~stats ~pool:(Some pool) (fun () ->
      run_flows ~engine ~flows ~spacing (Fabric.ops fab))

(* A [Tcp_secure] outer connection carrying [Transport.Tunnel]s at both
   ends, with [flows] inner sublayered connections at level 1 riding it. *)
let tunnel ~flows ~bytes ~timed ~seed =
  let t0 = Timing.now_ns () in
  let engine = Sim.Engine.create ~seed () in
  let stats = Sublayer.Stats.create ~label:"perf" () in
  let key = Tcp_secure.demo_key in
  let outer, outer_config, inner, inner_config =
    if timed then
      (Stacks.Secure.factory ~key, Stacks.L0.config, Some Stacks.L1.factory, Stacks.L1.config)
    else (Tcp_secure.factory ~key, Config.default, None, Config.default)
  in
  let oa, ob =
    Host.pair engine ~config:outer_config ~factory_a:outer ~factory_b:outer
      ~stats_a:stats ~stats_b:stats
      { (Sim.Channel.lossy 0.02) with Sim.Channel.delay = 0.02 }
  in
  let data = payloads ~seed ~n:flows ~bytes in
  let setup_s = secs_since t0 in
  flow_rep ~setup_s ~bytes ~stats ~pool:None (fun () ->
      Host.listen ob ~port:443;
      let accepted = ref None in
      Host.on_accept ob (fun c -> accepted := Some c);
      let ocli = Host.connect oa ~remote_port:443 () in
      while !accepted = None && Sim.Engine.now engine < 60. do
        Sim.Engine.run ~until:(Sim.Engine.now engine +. slice) engine
      done;
      let osrv =
        match !accepted with Some c -> c | None -> failwith "tunnel: outer connection never established"
      in
      let ins = Sublayer.Instrument.v ~stats ~level:1 () in
      let inner_host name conn =
        Host.create engine ~config:inner_config ?factory:inner ~ins ~name
          ~link:(Tunnel.link (Tunnel.create ~id:name conn)) ()
      in
      let ia = inner_host "iA" ocli and ib = inner_host "iB" osrv in
      let client = Array.make flows None and server = Array.make flows None in
      for f = 0 to flows - 1 do
        Host.listen ib ~port:(1024 + (2 * f))
      done;
      Host.on_accept ib (fun c ->
          server.((Host.local_port c - 1024) / 2) <- Some c;
          Host.on_event c (function `Peer_closed -> Host.close c | _ -> ()));
      let launch f =
        let c = Host.connect ia ~local_port:(1025 + (2 * f)) ~remote_port:(1024 + (2 * f)) () in
        client.(f) <- Some c;
        Host.write c data.(f);
        Host.close c
      in
      let flow_finished f =
        match (client.(f), server.(f)) with
        | Some c, Some s -> Host.received_length s = bytes && Host.finished c
        | _ -> false
      in
      let flow_exact f =
        match server.(f) with Some s -> Host.received s = data.(f) | None -> false
      in
      run_flows ~engine ~flows ~spacing { Sim.Workload.launch; flow_finished; flow_exact })

(* The three ARQs, one link each, over the default CRC-32 / HDLC / NRZ
   stack with 5 % of frames corrupted by one bit flip. Each ARQ is handed
   all its frames at once, so windows fill and frame completion times
   spread over the whole transfer. The timeout is 5 round trips of the
   1 ms link: at the library's default 250 ms, stop-and-wait's timeouts
   would decide every completion-time percentile. *)
let arqs : (module Datalink.Arq.S) list =
  [ (module Datalink.Arq_stop_and_wait); (module Datalink.Arq_go_back_n);
    (module Datalink.Arq_selective_repeat) ]

let arq_config = { Datalink.Arq.default_config with Datalink.Arq.rto = 0.01 }

let datalink ~flows ~bytes ~timed ~seed =
  let t0 = Timing.now_ns () in
  let links =
    List.mapi
      (fun k arq ->
        let engine = Sim.Engine.create ~seed:(seed + k) () in
        let stats_a = Sublayer.Stats.create ~label:"A" ()
        and stats_b = Sublayer.Stats.create ~label:"B" () in
        let pool = Bitkit.Pool.create ~slots:256 ~slot_bytes:2048 () in
        let spec = { Datalink.Stack.default_spec with Datalink.Stack.arq; arq_config } in
        let spec = if timed then Stacks.datalink_spec spec else spec in
        let link =
          Datalink.Stack.link engine ~stats_a ~stats_b ~pool
            { Sim.Channel.ideal with Sim.Channel.corruption = 0.05 }
            spec
        in
        (engine, stats_a, stats_b, pool, link, payloads ~seed:(seed + k) ~n:flows ~bytes))
      arqs
  in
  let setup_s = secs_since t0 in
  let run () =
    List.map
      (fun (engine, _, _, _, (link : Datalink.Stack.link), data) ->
        let q = link.received_at_b in
        let got = lazy (Array.of_seq (Queue.to_seq q)) in
        run_flows ~engine ~flows ~spacing:0.
          {
            Sim.Workload.launch = (fun i -> Datalink.Stack.send link.a data.(i));
            flow_finished = (fun i -> Queue.length q > i);
            flow_exact =
              (fun i ->
                let g = Lazy.force got in
                i < Array.length g && g.(i) = data.(i));
          })
      links
  in
  let results, run_s, minor_words, copied = measure run in
  let reports = List.map (fun (r, _, _) -> r) results in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reports in
  let exact = sum (fun r -> r.Sim.Workload.exact) in
  {
    setup_s; run_s;
    events = sum (fun r -> r.Sim.Workload.soak.Sim.Soak.events_fired);
    vtime = List.fold_left (fun acc r -> acc +. r.Sim.Workload.soak.Sim.Soak.vtime) 0. reports;
    attempted = sum (fun r -> r.Sim.Workload.flows);
    exact;
    payload = exact * bytes;
    fct = Array.concat (List.map (fun (_, fct, _) -> fct) results);
    active_vtime = List.fold_left (fun acc (_, _, v) -> acc +. v) 0. results;
    minor_words; copied;
    snapshot =
      List.concat_map
        (fun (_, a, b, _, _, _) -> Sublayer.Stats.snapshot a @ Sublayer.Stats.snapshot b)
        links;
    live_hwm = List.fold_left (fun acc r -> max acc r.Sim.Workload.live_hwm) 0 reports;
    pool_hwm = List.fold_left (fun acc (_, _, _, p, _, _) -> max acc (Bitkit.Pool.hwm p)) 0 links;
    pool_overruns = List.fold_left (fun acc (_, _, _, p, _, _) -> acc + Bitkit.Pool.overruns p) 0 links;
  }

type t = {
  name : string;
  pdu : string;  (** the stats counter that counts one received PDU *)
  size : int * int;  (** flows (frames per ARQ on datalink), bytes each *)
  smoke : int * int;  (** about 1/20 of [size] *)
  run : flows:int -> bytes:int -> timed:bool -> seed:int -> rep;
}

let all =
  [
    { name = "bulk"; pdu = "dm.segments_in"; size = (250, 65_536); smoke = (12, 65_536);
      run = fabric };
    { name = "short"; pdu = "dm.segments_in"; size = (5_000, 256); smoke = (250, 256);
      run = fabric };
    { name = "tunnel"; pdu = "dm.segments_in"; size = (8, 1_048_576); smoke = (8, 52_429);
      run = tunnel };
    { name = "datalink"; pdu = "detector.frames_verified"; size = (2_000, 512);
      smoke = (100, 512); run = datalink };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

let rep ~smoke w ~timed ~seed =
  let flows, bytes = if smoke then w.smoke else w.size in
  if flows < 1 || bytes < 1 then
    invalid_arg (Printf.sprintf "%s: %d flows of %d bytes is not a workload" w.name flows bytes);
  w.run ~flows ~bytes ~timed ~seed
