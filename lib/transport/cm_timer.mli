(** Watson-style timer-based connection management — the drop-in CM
    replacement the paper names explicitly (§3: "one could in principle
    seamlessly replace ... connection management (by a timer-based
    scheme [31])", citing Watson's delta-t).

    No SYN/FIN handshake exists: an initiator picks a clock-derived ISN
    (unique within the maximum segment lifetime) and starts sending data
    immediately; a listener accepts the connection on the first segment
    bearing a fresh identity. Old duplicates are excluded by the same
    ISN-stamping trust check as the three-way-handshake CM, whose
    soundness now rests on bounded packet lifetime plus clock-unique ISNs
    rather than on the handshake. Connection state is removed by {e
    timers}: after [idle_timeout] with nothing outstanding the connection
    reports the peer gone and closes.

    The module implements exactly {!Cm}'s machine ports, so swapping
    [Cm] for [Cm_timer] in a stack declaration composes without
    touching RD, OSR or DM — experiment E10's CM-replacement case, for
    the whole sublayer rather than just the ISN mechanism.

    Watson's known trade-off is preserved honestly: closure is detected
    by silence, so [`Peer_fin]/[`Closed] arrive only after the idle
    timeout, and a silent peer is indistinguishable from a departed one. *)

type t

val initial :
  ?stats:Sublayer.Stats.scope ->
  ?span:Sublayer.Span.ctx ->
  Config.t ->
  isn:Isn.t ->
  local_port:int ->
  remote_port:int ->
  idle_timeout:float ->
  t
(** Counters (when [stats] is given): [established], [segments_stamped],
    [segments_dropped], [idle_closes]. When [span] is given, instant
    [established]/[idle_close] markers record the delta-t lifecycle. *)

type timer = Idle

include
  Sublayer.Compose.SUBLAYER
    with type t := t
     and type up_req = Iface.cm_req
     and type up_ind = Iface.cm_ind
     and type down_req = Bitkit.Wirebuf.t
     and type down_ind = Bitkit.Slice.t
     and type timer := timer
