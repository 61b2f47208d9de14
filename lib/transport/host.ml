module I = Sublayer.Instrument
module Link = Sublayer.Link

type endpoint = {
  ep_from_wire : Bitkit.Slice.t -> unit;
  ep_connect : unit -> unit;
  ep_listen : unit -> unit;
  ep_write : string -> unit;
  ep_read : int -> unit;
  ep_close : unit -> unit;
  ep_abort : unit -> unit;
  ep_finished : unit -> bool;
}

type factory = {
  fname : string;
  peek : Bitkit.Slice.t -> (int * int) option;
  make :
    ?ins:Sublayer.Instrument.t ->
    Sim.Engine.t ->
    name:string ->
    Config.t ->
    local_port:int ->
    remote_port:int ->
    transmit:(Bitkit.Slice.t -> unit) ->
    events:(Iface.app_ind -> unit) ->
    endpoint;
}

type 's stack = {
  from_above : 's -> Iface.app_req -> unit;
  from_below : 's -> Bitkit.Slice.t -> unit;
  halt : 's -> unit;
  finished : 's -> bool;
}

let stack_endpoint stack ~ins ~name ~events create =
  (* The app boundary's probe is wired only when a monitor will read it:
     otherwise the stack delivers straight to [events] and requests go
     straight down. *)
  let above, t =
    match ins.I.monitors with
    | None ->
        let t = create events in
        (stack.from_above t, t)
    | Some _ as mon ->
        let app_req, app_ind = Conform.app mon ~conn:name in
        let t = create (fun e -> app_ind e; events e) in
        ((fun r -> app_req r; stack.from_above t r), t)
  in
  {
    ep_from_wire = stack.from_below t;
    ep_connect = (fun () -> above `Connect);
    ep_listen = (fun () -> above `Listen);
    ep_write = (fun s -> above (`Write s));
    ep_read = (fun n -> above (`Read n));
    ep_close = (fun () -> above `Close);
    ep_abort = (fun () -> stack.halt t);
    ep_finished = (fun () -> stack.finished t);
  }

let sublayered_stack =
  { from_above = Tcp_sublayered.from_above; from_below = Tcp_sublayered.from_wire;
    halt = Tcp_sublayered.halt; finished = Tcp_sublayered.stream_finished }

let sublayered =
  {
    fname = "sublayered";
    peek = Segment.peek_ports;
    make =
      (fun ?(ins = I.none) engine ~name cfg ~local_port ~remote_port ~transmit
           ~events ->
        stack_endpoint sublayered_stack ~ins ~name ~events (fun events ->
            Tcp_sublayered.create engine ~ins ~name cfg ~local_port ~remote_port
              ~transmit ~events));
  }

type conn = {
  c_local : int;
  c_remote : int;
  c_accepted : bool;  (** spawned by a listener *)
  mutable ep : endpoint;
      (** [unbound] until the factory has made it, and an inert endpoint
          again once the connection retires *)
  mutable auto_read : bool;
  store : Bitkit.Blockbuf.t;  (** delivered bytes since the last [take_received] *)
  mutable c_established : bool;
  mutable c_peer_closed : bool;
  mutable c_closed : bool;
  mutable c_reset : bool;
  mutable c_aborted : bool;
  mutable user_data : (string -> unit) option;
  mutable user_event : (Iface.app_ind -> unit) option;
}

(* Tables keyed by port numbers: a connection by [(local lsl 16) lor
   remote], a port by itself. The multiplicative hash mixes the remote
   port's bits with the local one's, so a host's connections spread over
   the buckets even when their ports differ in the same few bits. *)
module Ports = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = (k * 0x9E3779B1) lsr 16
end)

let conn_key ~local ~remote = (local lsl 16) lor remote

let first_ephemeral = 49152
let last_ephemeral = 65535
let ephemeral_ports = last_ephemeral - first_ephemeral + 1

exception Ports_exhausted of string

type t = {
  engine : Sim.Engine.t;
  config : Config.t;
  factory : factory;
  name : string;
  link : Bitkit.Slice.t Link.t;
  transmit : Bitkit.Slice.t -> unit;  (* into [link], shared by every connection *)
  ins : I.t;
  (* The live connections: each leaves at its terminal indication
     ([retire]). *)
  conns : conn Ports.t;
  (* Live connections per local port, so the ephemeral scan tests a port
     in O(1) and a port is free again once its last connection retires. *)
  port_use : int Ports.t;
  mutable ephemeral_used : int;  (* ephemeral ports with a live connection *)
  listeners : unit Ports.t;
  mutable accept_cb : (conn -> unit) option;
  mutable next_ephemeral : int;
}

let wire_link host = host.link

(* The endpoint of a connection without a stack: before the factory has
   made one, and after retirement, where it answers [finished] as the
   stack did when it retired. *)
let inert finished =
  { ep_from_wire = ignore; ep_connect = ignore; ep_listen = ignore; ep_write = ignore;
    ep_read = ignore; ep_close = ignore; ep_abort = ignore;
    ep_finished = (fun () -> finished) }

let unbound = inert false
let drained = inert true

let is_ephemeral port = port >= first_ephemeral && port <= last_ephemeral

(* Retire [c]: it reads as closed, its key and its port use leave the
   tables, and the handle keeps its receive store and flags but swaps its
   endpoint for an inert one, so the stack is garbage once its last timer
   has run. A connection that a newer one with the same ports displaced
   from the table leaves the table alone; retiring twice changes
   nothing. *)
let retire host c =
  c.c_closed <- true;
  let key = conn_key ~local:c.c_local ~remote:c.c_remote in
  (match Ports.find host.conns key with
  | live when live == c -> (
      Ports.remove host.conns key;
      match Ports.find host.port_use c.c_local with
      | 1 ->
          Ports.remove host.port_use c.c_local;
          if is_ephemeral c.c_local then host.ephemeral_used <- host.ephemeral_used - 1
      | n -> Ports.replace host.port_use c.c_local (n - 1))
  | _ | (exception Not_found) -> ());
  c.ep <- (if c.ep.ep_finished () then drained else unbound)

let handle_event host c (e : Iface.app_ind) =
  (match e with
  | `Established ->
      let first = not c.c_established in
      c.c_established <- true;
      if first && c.c_accepted then begin
        match host.accept_cb with Some cb -> cb c | None -> ()
      end
  | `Data s -> (
      (* The app-ingest copy: the delivered view is only valid for this
         event, so the receive store takes the bytes now. *)
      Bitkit.Blockbuf.add c.store s;
      if c.auto_read then c.ep.ep_read (Bitkit.Slice.length s);
      match c.user_data with Some cb -> cb (Bitkit.Slice.to_string s) | None -> ())
  | `Peer_closed -> c.c_peer_closed <- true
  | `Closed -> retire host c
  | `Reset ->
      c.c_reset <- true;
      retire host c
  | `Aborted ->
      c.c_aborted <- true;
      retire host c);
  match c.user_event with Some cb -> cb e | None -> ()

let make_conn host ~local_port ~remote_port ~accepted =
  let c =
    { c_local = local_port; c_remote = remote_port; c_accepted = accepted;
      ep = unbound; auto_read = true; store = Bitkit.Blockbuf.create ();
      c_established = false; c_peer_closed = false;
      c_closed = false; c_reset = false; c_aborted = false;
      user_data = None; user_event = None }
  in
  (* The label is a monitor key and a span track; with neither attached
     nothing reads it, so the host's own name stands in. *)
  let name =
    if not (I.labelled host.ins) then host.name
    else
      String.concat ""
        [ host.name; ":"; string_of_int local_port; ">"; string_of_int remote_port ]
  in
  c.ep <-
    host.factory.make ~ins:host.ins host.engine ~name host.config ~local_port
      ~remote_port ~transmit:host.transmit ~events:(handle_event host c);
  let key = conn_key ~local:local_port ~remote:remote_port in
  if not (Ports.mem host.conns key) then begin
    let n = try Ports.find host.port_use local_port with Not_found -> 0 in
    if n = 0 && is_ephemeral local_port then host.ephemeral_used <- host.ephemeral_used + 1;
    Ports.replace host.port_use local_port (n + 1)
  end;
  Ports.replace host.conns key c;
  c

(* The next ephemeral port with no connection, scanning round-robin from
   where the last allocation stopped. *)
let alloc_port host =
  if host.ephemeral_used >= ephemeral_ports then
    raise
      (Ports_exhausted
         (Printf.sprintf "Host.connect: all %d ephemeral ports of %s are in use"
            ephemeral_ports host.name));
  let rec go () =
    let p = host.next_ephemeral in
    host.next_ephemeral <- (if p >= last_ephemeral then first_ephemeral else p + 1);
    if Ports.mem host.port_use p then go () else p
  in
  go ()

(* Link death: every live connection is torn down the way RD's give-up
   would tear it down — stack halted (timers cancelled, entry points
   inert), then the local [`Aborted] indication. Inner stacks riding a
   dead tunnel must not keep retransmitting into the void. *)
let abort_conn host c =
  if not c.c_closed then begin
    c.ep.ep_abort ();
    handle_event host c `Aborted
  end

let connect host ?local_port ~remote_port () =
  let local_port = match local_port with Some p -> p | None -> alloc_port host in
  let c = make_conn host ~local_port ~remote_port ~accepted:false in
  if Link.alive host.link then c.ep.ep_connect () else abort_conn host c;
  c

let listen host ~port = Ports.replace host.listeners port ()

let connections host = List.of_seq (Ports.to_seq_values host.conns)

let on_accept host cb = host.accept_cb <- Some cb

let from_wire host wire =
  match host.factory.peek wire with
  | None -> ()
  | Some (src_port, dst_port) -> (
      match Ports.find host.conns (conn_key ~local:dst_port ~remote:src_port) with
      | c -> c.ep.ep_from_wire wire
      | exception Not_found ->
          if Ports.mem host.listeners dst_port then begin
            let c =
              make_conn host ~local_port:dst_port ~remote_port:src_port ~accepted:true
            in
            let sent = Link.transmitted host.link in
            c.ep.ep_listen ();
            c.ep.ep_from_wire wire;
            (* A passive connection opens on its first segment by answering
               it in the same call (a SYN|ACK) or by indicating
               [`Established] (Watson's first contact). One that did
               neither is still listening and has dropped the segment (a
               late FIN for a retired connection, say): it holds no
               session, so it retires at once. *)
            if (not c.c_established) && Link.transmitted host.link = sent then retire host c
          end)

let create engine ?(config = Config.default) ?(factory = sublayered)
    ?(ins = I.none) ~name ~link () =
  (* [ins.telemetry] is only forwarded to the endpoint factory here (it
     gates the Alloc cells). Registering [ins.stats] as a sampling source
     is the registry owner's job — hosts can share one registry (the
     fabric); {!Sublayer.Stats.telemetry_source} is idempotent per pair
     anyway. *)
  let name = I.tagged_name ins name in
  (* The link's MTU hint caps the segment payload: a tunnel that frames
     inner segments into an outer stream tells inner stacks how much
     fits per record. *)
  let config =
    match Link.mtu link with
    | Some m -> { config with Config.mss = min config.Config.mss m }
    | None -> config
  in
  let host =
    { engine; config; factory; name; link; transmit = Link.transmit link; ins;
      conns = Ports.create 8; port_use = Ports.create 8; ephemeral_used = 0;
      listeners = Ports.create 4; accept_cb = None;
      next_ephemeral = first_ephemeral }
  in
  Link.attach link (from_wire host);
  (* Aborting retires each connection, so walk a snapshot of the table. *)
  Link.on_death link (fun () -> List.iter (abort_conn host) (connections host));
  host

let write c s = c.ep.ep_write s
let close c = c.ep.ep_close ()

let set_autoread c enabled = c.auto_read <- enabled

let consume c n = c.ep.ep_read n
let received c = Bitkit.Blockbuf.contents c.store
let received_length c = Bitkit.Blockbuf.length c.store
let received_equal c s = Bitkit.Blockbuf.equal_string c.store s

let take_received c =
  let s = Bitkit.Blockbuf.contents c.store in
  Bitkit.Blockbuf.clear c.store;
  s

let established c = c.c_established
let peer_closed c = c.c_peer_closed
let closed c = c.c_closed
let was_reset c = c.c_reset
let aborted c = c.c_aborted
let finished c = c.ep.ep_finished ()
let local_port c = c.c_local
let remote_port c = c.c_remote
let on_data c cb = c.user_data <- Some cb
let on_event c cb = c.user_event <- Some cb

(* A CRC-32 guard standing in for the data link's error-detection
   sublayer: corrupted wire segments are dropped, never delivered. The
   digest is computed in place over the slice view ([digest_sub]); only
   protection materialises a new buffer (it must append the trailer). *)
(* Built eagerly at module init: [lazy] is not domain-safe (two shard
   domains racing to force it raise [Lazy.Undefined]), and the table is
   16 KiB built once, so there is nothing worth deferring. *)
let crc_engine = Bitkit.Crc.make Bitkit.Crc.crc32

let guard_digest sl =
  Bitkit.Crc.digest_sub crc_engine sl.Bitkit.Slice.base
    sl.Bitkit.Slice.off sl.Bitkit.Slice.len

let guard_protect sl =
  let d = guard_digest sl in
  let n = Bitkit.Slice.length sl in
  let b = Bytes.create (n + 4) in
  Bitkit.Slice.blit sl b 0;
  for i = 0 to 3 do
    Bytes.set b (n + i)
      (Char.chr (Int64.to_int (Int64.shift_right_logical d (8 * (3 - i))) land 0xFF))
  done;
  Bitkit.Slice.of_string (Bytes.unsafe_to_string b)

let guard_verify sl =
  let n = Bitkit.Slice.length sl in
  if n < 4 then None
  else begin
    let body = Bitkit.Slice.sub sl ~pos:0 ~len:(n - 4) in
    let d = guard_digest body in
    let ok = ref true in
    for i = 0 to 3 do
      let expect =
        Int64.to_int (Int64.shift_right_logical d (8 * (3 - i))) land 0xFF
      in
      if Char.code (Bitkit.Slice.get sl (n - 4 + i)) <> expect then ok := false
    done;
    if !ok then Some body else None
  end

let pair_channels engine ?(config = Config.default) ?(factory_a = sublayered)
    ?(factory_b = sublayered) ?(guard = false) ?stats_a ?stats_b ?tracer
    ?monitors ?telemetry ?pool ?(level = 0) channel_config =
  (* The hosts sit on [Link]s; the channels deliver into them. Links are
     created first (channels and hosts both reference them), transmit
     closures tied once the channels exist. *)
  let link_a = Link.make ~id:"A" () in
  let link_b = Link.make ~id:"B" () in
  Option.iter
    (fun p ->
      Sim.Engine.after_event engine (fun () -> Bitkit.Pool.drain_deferred p))
    pool;
  let deliver target s =
    if guard then
      match guard_verify s with Some body -> Link.deliver target body | None -> ()
    else Link.deliver target s
  in
  let ab =
    Sim.Channel.create engine channel_config ~size:Bitkit.Slice.length
      ~corrupt:Sim.Channel.corrupt_slice
      ~deliver:(fun s -> deliver link_b s)
      ()
  in
  let ba =
    Sim.Channel.create engine channel_config ~size:Bitkit.Slice.length
      ~corrupt:Sim.Channel.corrupt_slice
      ~deliver:(fun s -> deliver link_a s)
      ()
  in
  (* A segment DM emitted into a pool slot must outlive this event (the
     channel delivers it later): recognise the slot and transfer a
     reference to the channel. The guard path copies into its protected
     buffer anyway, so no loan is needed there. *)
  let tx ch s =
    if guard then Sim.Channel.send ch (guard_protect s)
    else
      match pool with
      | None -> Sim.Channel.send ch s
      | Some p -> (
          match Bitkit.Pool.slot_of_slice p s with
          | None -> Sim.Channel.send ch s
          | Some slot ->
              Bitkit.Pool.retain p slot;
              Sim.Channel.send ~loan:(p, slot) ch s)
  in
  (* The pair owns the two registries, so it registers them as sampling
     sources (one per side, prefixed by the host name). *)
  (match telemetry with
  | Some tele ->
      let reg_source name = function
        | Some reg -> Sublayer.Stats.telemetry_source tele ~name reg
        | None -> ()
      in
      reg_source "A" stats_a;
      reg_source "B" stats_b
  | None -> ());
  Link.set_transmit link_a (tx ab);
  Link.set_transmit link_b (tx ba);
  (* One shared tracer: the cross-host span correlation (RD's flight
     spans closed by the receiving end) needs both hosts on it. *)
  let ins side =
    I.v ?stats:side ?tracer ?monitors ?telemetry ?pool ~level ()
  in
  let a =
    create engine ~config ~factory:factory_a ~ins:(ins stats_a) ~name:"A"
      ~link:link_a ()
  in
  let b =
    create engine ~config ~factory:factory_b ~ins:(ins stats_b) ~name:"B"
      ~link:link_b ()
  in
  (a, b, ab, ba)

let pair engine ?config ?factory_a ?factory_b ?guard ?stats_a ?stats_b ?tracer
    ?monitors ?telemetry ?pool ?level channel_config =
  let a, b, _, _ =
    pair_channels engine ?config ?factory_a ?factory_b ?guard ?stats_a ?stats_b
      ?tracer ?monitors ?telemetry ?pool ?level channel_config
  in
  (a, b)
