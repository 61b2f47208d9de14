module Compose = Sublayer.Compose
module I = Sublayer.Instrument

type stats = {
  mutable forwarded : int;
  mutable delivered : int;
  mutable originated : int;
  mutable no_route : int;
  mutable ttl_expired : int;
}

(* Counter-backed; [stats] snapshots these into the legacy record. *)
type counters = {
  c_forwarded : Sublayer.Stats.counter;
  c_delivered : Sublayer.Stats.counter;
  c_originated : Sublayer.Stats.counter;
  c_no_route : Sublayer.Stats.counter;
  c_ttl_expired : Sublayer.Stats.counter;
}

(* Correlation key for one data packet's network transit: every router it
   crosses can rebuild the key from the packet alone, so the origin's
   "transit" span is closed by whichever router terminates the packet
   (delivery, no-route, TTL expiry). Keyed on the per-packet nonce —
   src/dst/payload collide when identical payloads are in flight between
   the same pair, which left the first packet's span open forever. *)
let pkey (p : Packet.t) = Printf.sprintf "pkt:%d" p.Packet.nonce

(* Forwarding, the top sublayer: the FIB, which only route computation's
   indications write, and the data path, which only reads it. *)
module Forwarding = struct
  let name = "forwarding"
  let scope = "router"

  type t = {
    addr : Addr.t;
    fib : Fib.t;
    ctrs : counters;
    sp : Sublayer.Span.ctx;
    probe : Conform.fib_probe;
  }

  type up_req = Addr.t * Bitkit.Slice.t
  type up_ind = Packet.t
  type down_req = int * Packet.frame
  type down_ind = Routing.ind
  type timer = Sublayer.Machine.Nothing.t

  (* Local delivery, FIB lookup, TTL handling. Route computation is
     invisible here except through the FIB. *)
  let route t packet =
    if Addr.equal packet.Packet.dst t.addr then begin
      Sublayer.Stats.incr t.ctrs.c_delivered;
      if Sublayer.Span.active t.sp then
        ignore
          (Sublayer.Span.close_id t.sp
             ~id:(Sublayer.Span.take t.sp (pkey packet))
             ~detail:"delivered" ());
      [ Sublayer.Machine.Up packet ]
    end
    else begin
      let next = Fib.lookup t.fib packet.Packet.dst in
      t.probe.Conform.obs_lookup ~hit:(next <> None);
      match next with
      | None ->
          Sublayer.Stats.incr t.ctrs.c_no_route;
          if Sublayer.Span.active t.sp then
            ignore
              (Sublayer.Span.close_id t.sp
                 ~id:(Sublayer.Span.take t.sp (pkey packet))
                 ~detail:"no_route" ());
          []
      | Some ifindex -> (
          match Packet.decrement_ttl packet with
          | None ->
              Sublayer.Stats.incr t.ctrs.c_ttl_expired;
              if Sublayer.Span.active t.sp then
                ignore
                  (Sublayer.Span.close_id t.sp
                     ~id:(Sublayer.Span.take t.sp (pkey packet))
                     ~detail:"ttl_expired" ());
              []
          | Some packet ->
              Sublayer.Stats.incr t.ctrs.c_forwarded;
              if Sublayer.Span.active t.sp then begin
                (* Lookup, not take: the transit span stays bound until a
                   terminating router closes it. *)
                let id = Sublayer.Span.lookup t.sp (pkey packet) in
                Sublayer.Span.instant t.sp ~parent:id
                  ~trace:(Sublayer.Span.trace_of_id t.sp ~id)
                  ~detail:("ttl=" ^ string_of_int packet.Packet.ttl) "forward"
              end;
              [ Sublayer.Machine.Down (ifindex, Packet.Data packet) ])
    end

  let handle_up_req t (dst, payload) =
    Sublayer.Stats.incr t.ctrs.c_originated;
    let packet = Packet.make ~src:t.addr ~dst payload in
    if Sublayer.Span.active t.sp then begin
      let id =
        Sublayer.Span.start_free t.sp ~trace:(Sublayer.Span.fresh_trace t.sp) "transit"
      in
      Sublayer.Span.bind t.sp (pkey packet) id
    end;
    (t, route t packet)

  let handle_down_ind t = function
    | Routing.Install (dst, ifindex) ->
        let before = Fib.size t.fib in
        Fib.insert t.fib (Addr.host dst) ifindex;
        t.probe.Conform.obs_insert ~fresh:(Fib.size t.fib > before);
        (t, [])
    | Routing.Uninstall dst ->
        let before = Fib.size t.fib in
        Fib.remove t.fib (Addr.host dst);
        t.probe.Conform.obs_remove ~removed:(Fib.size t.fib < before);
        (t, [])
    | Routing.Data packet -> (t, route t packet)

  let handle_timer _ tm = Sublayer.Machine.Nothing.absurd tm
end

(* The taps of the two seams carry no monitor yet: they charge each
   crossing to the allocation cells on either side, so under telemetry
   every sublayer pays for its own words. *)
module P_fwd = Compose.Tap (struct type req = int * Packet.frame type ind = Routing.ind end)
module P_hello = Compose.Tap (struct type req = int * Packet.frame type ind = Hello.event end)

type t = {
  fib : Fib.t;
  ctrs : counters;
  interfaces : (int, Packet.frame -> unit) Hashtbl.t;
  mutable next_ifindex : int;
  from_below : Hello.wire -> unit;
  from_above : Addr.t * Bitkit.Slice.t -> unit;
  neighbors : unit -> (int * Addr.t) list;
  halt : unit -> unit;
}

(* The hello machinery at the bottom of every router's stack. *)
module Hello_last = Compose.Last (Hello)

(* What a router's stack hands the router: its entry points and its
   hello neighbours. *)
type run = {
  run_from_below : Hello.wire -> unit;
  run_from_above : Addr.t * Bitkit.Slice.t -> unit;
  run_neighbors : unit -> (int * Addr.t) list;
  run_halt : unit -> unit;
}

module type DECLARED = sig
  val run :
    Sim.Engine.t ->
    ins:I.t ->
    name:string ->
    Forwarding.t ->
    (string -> Sublayer.Stats.scope) ->
    now:(unit -> float) ->
    transmit:(int * Packet.frame -> unit) ->
    deliver:(Packet.t -> unit) ->
    run
end

(* Forwarding over route computation over hello. The protocol is the
   caller's, so the stack is declared once per protocol module, by the
   first router that runs it. *)
let declare (module P : Routing.S) =
  (module struct
    module L = Compose.Seam (P) (P_hello) (Hello_last)
    module S = Compose.Seam (Forwarding) (P_fwd) (L)
    module R = Compose.Run (S)

    let run engine ~ins ~name (fwd : Forwarding.t) in_scope ~now ~transmit ~deliver =
      let r =
        R.create engine ~ins ~name ~transmit ~deliver
          ( fwd,
            P_fwd.cells,
            ( P.initial (in_scope P.scope) fwd.addr,
              P_hello.cells,
              Hello.initial ~stats:(in_scope Hello.scope) ~now fwd.addr ) )
      in
      (* Route computation arms its periodic timer now, before any link is
         attached, so every router's timer is queued ahead of the HELLOs. *)
      R.from_below r Hello.Start;
      { run_from_below = R.from_below r; run_from_above = R.from_above r;
        run_neighbors = (fun () -> Hello.neighbors (L.lower (S.lower (R.state r))));
        run_halt = (fun () -> R.halt r) }
  end : DECLARED)

let declared = Compose.memo declare

let create engine ?(ins = I.none) ~addr ~routing ~deliver () =
  (* One scope per network sublayer: forwarding ("router"), the FIB, the
     hello machinery, and the route-computation protocol under its own
     name — T3's separation applied to the counters. *)
  let in_scope sub =
    match I.scope ins sub with Some sc -> sc | None -> Sublayer.Stats.unregistered sub
  in
  let name = Addr.to_string addr and now () = Sim.Engine.now engine in
  let rsc = in_scope Forwarding.scope in
  let ctrs =
    {
      c_forwarded = Sublayer.Stats.counter rsc "forwarded";
      c_delivered = Sublayer.Stats.counter rsc "delivered";
      c_originated = Sublayer.Stats.counter rsc "originated";
      c_no_route = Sublayer.Stats.counter rsc "no_route";
      c_ttl_expired = Sublayer.Stats.counter rsc "ttl_expired";
    }
  in
  let sp =
    Option.value (I.span ins ~now ~track:name Forwarding.scope)
      ~default:(Sublayer.Span.disabled Forwarding.scope)
  in
  let fib = Fib.create ~stats:(in_scope "fib") () in
  let probe = Conform.fib ins.I.monitors ~key:name in
  let interfaces = Hashtbl.create 4 in
  let transmit (ifindex, frame) =
    match Hashtbl.find_opt interfaces ifindex with Some send -> send frame | None -> ()
  in
  let (module D) = declared routing in
  let r =
    D.run engine ~ins ~name { Forwarding.addr; fib; ctrs; sp; probe } in_scope ~now ~transmit
      ~deliver
  in
  { fib; ctrs; interfaces; next_ifindex = 0; from_below = r.run_from_below;
    from_above = r.run_from_above; neighbors = r.run_neighbors; halt = r.run_halt }

let fib t = t.fib

let stats t =
  {
    forwarded = Sublayer.Stats.value t.ctrs.c_forwarded;
    delivered = Sublayer.Stats.value t.ctrs.c_delivered;
    originated = Sublayer.Stats.value t.ctrs.c_originated;
    no_route = Sublayer.Stats.value t.ctrs.c_no_route;
    ttl_expired = Sublayer.Stats.value t.ctrs.c_ttl_expired;
  }

let neighbors t = t.neighbors ()

let add_interface t ~transmit =
  let ifindex = t.next_ifindex in
  t.next_ifindex <- ifindex + 1;
  Hashtbl.replace t.interfaces ifindex transmit;
  t.from_below (Hello.Attach ifindex);
  ifindex

let on_frame t ~ifindex frame = t.from_below (Hello.Frame (ifindex, frame))
let originate t ~dst payload = t.from_above (dst, payload)
let stop t = t.halt ()
