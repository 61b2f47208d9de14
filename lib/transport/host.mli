(** Multi-connection transport host: the port table that DM's
    demultiplexing service manages (binding, ephemeral allocation, listen
    dispatch), with a small socket-style API over any endpoint kind
    (sublayered or monolithic — benches compare them behind this same
    interface).

    The host routes each wire segment by its DM ports only
    ({!Segment.peek_ports} for the sublayered format, {!Wire.peek_ports}
    for the standard one); everything else in the segment is the owning
    connection's business.

    The table holds live connections only. A connection retires at its
    terminal indication: [`Closed] (after TIME_WAIT on the active
    closer), [`Reset] or [`Aborted]. Retiring removes it from the table,
    frees its port and drops its stack; the {!conn} handle keeps its
    receive store and flags. A segment for a retired connection goes to
    the listener on its port, if there is one. When the connection
    spawned for it does not open on that segment (a late FIN, say), the
    stack has dropped the segment, and the connection retires at once,
    sending nothing. *)

(** What the host needs from an endpoint implementation. Wire segments
    cross this boundary as {!Bitkit.Slice} views of the received buffer
    — no copy per hop. *)
type endpoint = {
  ep_from_wire : Bitkit.Slice.t -> unit;
      (** On a connection spawned for a listener, the first call decides
          whether it opens: it counts as open only if the endpoint
          transmits or indicates [`Established] within that call.
          Otherwise the host retires it at once, so a passive endpoint
          must answer an opening segment synchronously, and must drop
          without transmitting (no RST) a segment that leaves it
          listening. *)
  ep_connect : unit -> unit;
  ep_listen : unit -> unit;
  ep_write : string -> unit;
  ep_read : int -> unit;
      (** flow-control credit: the application consumed [n] bytes *)
  ep_close : unit -> unit;
  ep_abort : unit -> unit;
      (** make the endpoint inert — timers cancelled, entry points
          no-ops — because the link underneath died.  No wire traffic,
          no events. *)
  ep_finished : unit -> bool;  (** all written bytes acknowledged *)
}

type factory = {
  fname : string;
  peek : Bitkit.Slice.t -> (int * int) option;
      (** (src_port, dst_port) of a wire segment in this endpoint's
          format. *)
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
      (** [make ?ins engine ~name cfg ...] builds one endpoint. [name] is
          the connection's label ["<host>:<lport>><rport>"] when
          {!Sublayer.Instrument.labelled} holds for [ins] (a monitor keys
          its instances by it, a tracer tracks spans under it); otherwise
          nothing reads it, and the host passes its own name instead of
          building a string per connection. *)
}

val sublayered : factory

(** {1 Building endpoints over a stack} *)

type 's stack = {
  from_above : 's -> Iface.app_req -> unit;
  from_below : 's -> Bitkit.Slice.t -> unit;
  halt : 's -> unit;
  finished : 's -> bool;
}
(** What an endpoint needs of a running stack of type ['s]: one value per
    factory, made once. *)

val stack_endpoint :
  's stack ->
  ins:Sublayer.Instrument.t ->
  name:string ->
  events:(Iface.app_ind -> unit) ->
  ((Iface.app_ind -> unit) -> 's) ->
  endpoint
(** [stack_endpoint stack ~ins ~name ~events create] is the endpoint of
    the stack [create] builds around the delivery callback it is given.
    With [ins.monitors], the application boundary's probe
    ({!Conform.app}, keyed by [name]) sees every request before the
    stack does and every indication before [events] does. Without a
    monitor nothing is wired there: [create] gets [events] itself and
    requests go straight to [stack.from_above]. {!sublayered},
    [Tcp_secure.factory] and [Tcp_watson.factory] are built with it. *)

type t

val create :
  Sim.Engine.t ->
  ?config:Config.t ->
  ?factory:factory ->
  ?ins:Sublayer.Instrument.t ->
  name:string ->
  link:Bitkit.Slice.t Sublayer.Link.t ->
  unit ->
  t
(** The host sends segments into [link] and attaches itself as the
    link's receiver; anything honouring the {!Sublayer.Link} contract
    can sit below — a [Sim.Channel] adapter (flat topology) or a
    {!Tunnel} over another transport connection (recursive
    sublayering). The link's MTU hint, when present, caps the
    configured MSS; link death aborts every live connection
    ({!aborted} turns true, stacks go inert) and so retires it.

    [ins] bundles the instruments. With [ins.stats], every connection's
    sublayers register their counters in it (connections sharing the
    host aggregate into the same per-sublayer scopes); with
    [ins.tracer], they record causal spans, tracked per connection as
    ["<host>:<lport>><rport>"]; [ins.telemetry] makes the factory
    install {!Sublayer.Alloc} cells. When [ins.level > 0] the host name
    — hence every track, monitor key and (via {!Sublayer.Instrument})
    scope — is prefixed ["l<level>:"], keeping recursion levels apart
    in shared registries. Registration of [ins.stats] as a sampling
    source stays the registry owner's job;
    {!Sublayer.Stats.telemetry_source} is idempotent per (registry,
    telemetry) pair, so shared registries are safe either way. *)

val wire_link : t -> Bitkit.Slice.t Sublayer.Link.t
(** The link this host transmits into (e.g. to inspect its counters or
    kill it in tests). *)

val from_wire : t -> Bitkit.Slice.t -> unit

(** {1 Connections} *)

type conn
(** One end of a connection. After it retires, {!write}, {!close} and
    {!consume} are no-ops, and the receive store and the flags below
    keep reading as they did at retirement. *)

exception Ports_exhausted of string
(** Raised by {!connect} when every ephemeral port has a live
    connection; the message names the host. *)

val connect : t -> ?local_port:int -> remote_port:int -> unit -> conn
(** Open a connection to [remote_port]. Without [local_port], the host
    picks the next ephemeral port (49152–65535, round-robin from where
    the last pick stopped) that no live connection of this host uses,
    skipping ports bound explicitly; each pick costs O(1) amortised. A
    port is free again once its connections retire, so {!connect}
    (without [local_port]) raises {!Ports_exhausted} only while all
    16 384 ephemeral ports have live connections. *)

val listen : t -> port:int -> unit
val on_accept : t -> (conn -> unit) -> unit

val write : conn -> string -> unit
(** Append to the outgoing stream; a no-op once the connection has
    retired. *)

val close : conn -> unit
(** Close gracefully once the stream has drained; a no-op once the
    connection has retired. *)

val set_autoread : conn -> bool -> unit
(** By default every delivered byte is immediately credited back to the
    sender's flow-control window. Turning auto-read off models a slow
    application: the receive window shrinks as data accumulates, closes
    entirely when the buffer fills, and the sender stalls (keeping a
    persist probe alive). Call {!consume} to grant credit manually. *)

val consume : conn -> int -> unit
(** Grant [n] bytes of flow-control credit (reopening the window); a
    no-op once the connection has retired. *)

(** Each connection keeps what it delivers in a receive store
    ({!Bitkit.Blockbuf}): taking the bytes in is the one counted copy
    of a delivery ({!Bitkit.Slice.copied_bytes}), and the store grows
    by adding blocks without moving a stored byte. *)

val received : conn -> string
(** Everything delivered in order since the last {!take_received}
    (since the connection opened, if there was none), concatenated into
    one new string. *)

val received_length : conn -> int
(** The length of {!received}, in O(1). *)

val received_equal : conn -> string -> bool
(** [received_equal c s] holds exactly when [received c = s]. Every
    byte is compared in place, with no allocation: the exactness check
    for a whole flow without building the flow's string. *)

val take_received : conn -> string
(** {!received}, then empty the store (streaming consumers); its blocks
    stay for the next deliveries. *)

val established : conn -> bool
val peer_closed : conn -> bool
val closed : conn -> bool
val was_reset : conn -> bool

val aborted : conn -> bool
(** The stack gave up on the peer (retransmission exhausted — the
    ETIMEDOUT analogue) and tore the connection down locally. *)

val finished : conn -> bool
(** Every written byte is acknowledged. After retirement, the answer
    the stack gave when the connection retired. *)

val local_port : conn -> int
val remote_port : conn -> int
val on_data : conn -> (string -> unit) -> unit
val on_event : conn -> (Iface.app_ind -> unit) -> unit

val connections : t -> conn list
(** The live connections: retired ones are gone from the table. *)

(** {1 Wiring helpers} *)

val pair :
  Sim.Engine.t ->
  ?config:Config.t ->
  ?factory_a:factory ->
  ?factory_b:factory ->
  ?guard:bool ->
  ?stats_a:Sublayer.Stats.registry ->
  ?stats_b:Sublayer.Stats.registry ->
  ?tracer:Sim.Tracer.t ->
  ?monitors:Monitor.Runtime.t ->
  ?telemetry:Sim.Telemetry.t ->
  ?pool:Bitkit.Pool.t ->
  ?level:int ->
  Sim.Channel.config ->
  t * t
(** Two hosts joined by a duplex impaired channel (each host sits on a
    channel-backed {!Sublayer.Link}). [guard] (default
    false) wraps the wire with a CRC-32 error-detection shim — the
    data-link service transport normally relies on — so corrupting
    channels drop rather than silently deliver damaged segments.
    [tracer] is shared by both hosts, so a segment's flight span opened
    on the sender is closed by the receiver (causal cross-host spans).
    [monitors] is likewise shared: one registry collects the conformance
    verdicts of every interface probe on both ends. [pool] (shared by
    both sides) makes the stacks emit and stage in arena slots; the
    transmit closures recognise slot-backed segments and loan them to
    the channel for the flight, and the engine drains deferred releases
    after every event. *)

val pair_channels :
  Sim.Engine.t ->
  ?config:Config.t ->
  ?factory_a:factory ->
  ?factory_b:factory ->
  ?guard:bool ->
  ?stats_a:Sublayer.Stats.registry ->
  ?stats_b:Sublayer.Stats.registry ->
  ?tracer:Sim.Tracer.t ->
  ?monitors:Monitor.Runtime.t ->
  ?telemetry:Sim.Telemetry.t ->
  ?pool:Bitkit.Pool.t ->
  ?level:int ->
  Sim.Channel.config ->
  t * t * Bitkit.Slice.t Sim.Channel.t * Bitkit.Slice.t Sim.Channel.t
(** Like {!pair}, but also return the two directed channels (a→b then
    b→a) so fault plans can impair them mid-run. [level] (default 0)
    sets the recursion level of both hosts' instrument contexts. *)
