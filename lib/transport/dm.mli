(** The demultiplexing sublayer — "essentially UDP" (paper §3). One
    instance handles one connection's port stamping and filtering; the
    port {e table} (binding, reuse, listen dispatch) lives in {!Host},
    which routes wire segments to per-connection stacks using
    {!Segment.peek_ports} only — DM's bits are all it ever reads. *)

type conn = { local_port : int; remote_port : int }

include
  Sublayer.Compose.SUBLAYER
    with type up_req = Bitkit.Wirebuf.t
     and type up_ind = Bitkit.Slice.t
     and type down_req = Bitkit.Slice.t
     and type down_ind = Bitkit.Slice.t
     and type timer = Sublayer.Machine.Nothing.t

val make :
  ?stats:Sublayer.Stats.scope ->
  ?span:Sublayer.Span.ctx ->
  ?pool:Bitkit.Pool.t ->
  local_port:int ->
  remote_port:int ->
  unit ->
  t
(** Counters (when [stats] is given): [segments_out], [segments_in],
    [rejected]. When [span] is given, instant [segment_out]/[segment_in]
    markers record the T2 crossings.

    When [pool] is given, outgoing segments are emitted into loaned
    arena slots instead of fresh heap strings; the loan is
    deferred-released at end of event, and a pool-aware transmit closure
    (see {!Host.pair_channels}, {!Fabric.create}) extends its lifetime
    to channel delivery by retaining the slot it recognises via
    {!Bitkit.Pool.slot_of_slice}. *)

val conn : t -> conn
