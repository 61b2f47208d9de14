type frame = Hello_pdu of string | Routing_pdu of string | Data of Packet.t

let frame_size = function
  | Hello_pdu s | Routing_pdu s -> String.length s
  | Data p -> Packet.size p

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

type t = {
  addr : Addr.t;
  fib : Fib.t;
  hello : Hello.t;
  routing : Routing.instance;
  interfaces : (int, frame -> unit) Hashtbl.t;
  mutable next_ifindex : int;
  deliver : Packet.t -> unit;
  ctrs : counters;
  sp : Sublayer.Span.ctx;
  probe : Conform.fib_probe;
  mutable stopped : bool;
}

(* Correlation key for one data packet's network transit: every router it
   crosses can rebuild the key from the packet alone, so the origin's
   "transit" span is closed by whichever router terminates the packet
   (delivery, no-route, TTL expiry). Keyed on the per-packet nonce —
   src/dst/payload collide when identical payloads are in flight between
   the same pair, which left the first packet's span open forever. *)
let pkey (p : Packet.t) = Printf.sprintf "pkt:%d" p.Packet.nonce

let transmit interfaces ifindex frame =
  match Hashtbl.find_opt interfaces ifindex with
  | Some send -> send frame
  | None -> ()

let create engine ?(hello_config = Hello.default_config) ?stats ?tracer
    ?monitors ~addr ~routing ~deliver () =
  (* One scope per network sublayer: forwarding ("router"), the FIB, the
     hello machinery, and the route-computation protocol under its own
     name — T3's separation applied to the counters. *)
  let in_scope sub =
    match stats with
    | Some reg -> Sublayer.Stats.scope reg sub
    | None -> Sublayer.Stats.unregistered sub
  in
  let rsc = in_scope "router" in
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
    match tracer with
    | Some tr ->
        Sublayer.Span.make ~tracer:tr ~stats:rsc
          ~now:(fun () -> Sim.Engine.now engine)
          ~track:(Addr.to_string addr) "router"
    | None -> Sublayer.Span.disabled "router"
  in
  let fib = Fib.create ~stats:(in_scope "fib") () in
  let probe = Conform.fib monitors ~key:(Addr.to_string addr) in
  let interfaces = Hashtbl.create 4 in
  let proto_scope = in_scope routing.Routing.protocol in
  let installed = Sublayer.Stats.counter proto_scope "routes_installed" in
  let uninstalled = Sublayer.Stats.counter proto_scope "routes_uninstalled" in
  let env =
    {
      Routing.engine;
      self = addr;
      send = (fun i pdu -> transmit interfaces i (Routing_pdu pdu));
      install =
        (fun dst ifindex ->
          Sublayer.Stats.incr installed;
          let before = Fib.size fib in
          Fib.insert fib (Addr.host dst) ifindex;
          probe.Conform.obs_insert ~fresh:(Fib.size fib > before));
      uninstall =
        (fun dst ->
          Sublayer.Stats.incr uninstalled;
          let before = Fib.size fib in
          Fib.remove fib (Addr.host dst);
          probe.Conform.obs_remove ~removed:(Fib.size fib < before));
      stats = proto_scope;
    }
  in
  let instance = routing.Routing.make env in
  let notify = function
    | Hello.Up { ifindex; peer } -> instance.Routing.neighbor_up ~ifindex peer
    | Hello.Down { ifindex; peer } -> instance.Routing.neighbor_down ~ifindex peer
  in
  let hello =
    Hello.create engine hello_config ~stats:(in_scope "hello") ~self:addr
      ~send:(fun i pdu -> transmit interfaces i (Hello_pdu pdu))
      ~notify
  in
  { addr; fib; hello; routing = instance; interfaces; next_ifindex = 0; deliver; ctrs;
    sp; probe; stopped = false }

let addr t = t.addr
let fib t = t.fib
let routing t = t.routing
let stats t =
  {
    forwarded = Sublayer.Stats.value t.ctrs.c_forwarded;
    delivered = Sublayer.Stats.value t.ctrs.c_delivered;
    originated = Sublayer.Stats.value t.ctrs.c_originated;
    no_route = Sublayer.Stats.value t.ctrs.c_no_route;
    ttl_expired = Sublayer.Stats.value t.ctrs.c_ttl_expired;
  }
let neighbors t = Hello.neighbors t.hello

let add_interface t ~transmit:send =
  let ifindex = t.next_ifindex in
  t.next_ifindex <- ifindex + 1;
  Hashtbl.replace t.interfaces ifindex send;
  Hello.add_interface t.hello ifindex;
  ifindex

(* The forwarding data path: local delivery, FIB lookup, TTL handling.
   Route computation is invisible here except through the FIB. *)
let route t packet =
  if Addr.equal packet.Packet.dst t.addr then begin
    Sublayer.Stats.incr t.ctrs.c_delivered;
    if Sublayer.Span.active t.sp then
      ignore
        (Sublayer.Span.close_id t.sp
           ~id:(Sublayer.Span.take t.sp (pkey packet))
           ~detail:"delivered" ());
    t.deliver packet
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
               ~detail:"no_route" ())
    | Some ifindex -> (
        match Packet.decrement_ttl packet with
        | None ->
            Sublayer.Stats.incr t.ctrs.c_ttl_expired;
            if Sublayer.Span.active t.sp then
              ignore
                (Sublayer.Span.close_id t.sp
                   ~id:(Sublayer.Span.take t.sp (pkey packet))
                   ~detail:"ttl_expired" ())
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
            transmit t.interfaces ifindex (Data packet))
  end

(* A stopped router drops whatever was still in flight to it. *)
let on_frame t ~ifindex frame =
  if not t.stopped then
    match frame with
    | Hello_pdu pdu -> Hello.on_pdu t.hello ~ifindex pdu
    | Routing_pdu pdu -> t.routing.Routing.on_pdu ~ifindex pdu
    | Data packet -> route t packet

let originate t ~dst payload =
  Sublayer.Stats.incr t.ctrs.c_originated;
  let packet = Packet.make ~src:t.addr ~dst payload in
  if Sublayer.Span.active t.sp then begin
    let id =
      Sublayer.Span.start_free t.sp
        ~trace:(Sublayer.Span.fresh_trace t.sp) "transit"
    in
    Sublayer.Span.bind t.sp (pkey packet) id
  end;
  route t packet

let stop t =
  t.stopped <- true;
  Hello.stop t.hello;
  t.routing.Routing.stop ()
