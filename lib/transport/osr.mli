(** The ordering / segmenting / rate-control sublayer — the top of the
    sublayered TCP (paper §3).

    Sender side, OSR segments the application byte stream by MSS and
    decides when each segment is "ready" for RD: the congestion window
    (pluggable {!Cc} algorithm, fed by RD's [`Acked]/[`Loss] summaries)
    and the peer's advertised flow-control window gate release. Receiver
    side, OSR pastes out-of-order segments back into the in-order byte
    stream and advertises its remaining buffer in the OSR header block it
    pushes down to RD. OSR guarantees TCP's main property — received
    bytes = sent bytes, in order — on top of RD's exactly-once segments. *)

type t

val initial :
  ?stats:Sublayer.Stats.scope ->
  ?cc_stats:Sublayer.Stats.scope ->
  ?span:Sublayer.Span.ctx ->
  ?pool:Bitkit.Pool.t ->
  Config.t ->
  now:(unit -> float) ->
  t
(** Counters (when [stats] is given): [bytes_written], [bytes_delivered],
    [segments_out], [copied_app_bytes]. When [cc_stats] is given the
    congestion-control instance created at establishment is wrapped with
    {!Cc.instrument} under that scope. When [span] is given, every write
    opens a fresh-trace [buffer] span (closed when segmented) and every
    accepted segment a [reasm] span (closed at in-order delivery); traces
    are handed to RD under local offset keys.

    In-order segments are delivered to the application as views of the
    incoming wire buffer — no copy, no [copied_app_bytes] charge. Only
    out-of-order arrivals are staged in owned storage across events: a
    slot of [pool] when given (heap on overrun), a heap string
    otherwise. *)

type stats = {
  mutable bytes_written : int;    (** accepted from the application *)
  mutable bytes_delivered : int;  (** handed to the application in order *)
  mutable segments_out : int;
}

val stats : t -> stats
(** Fresh snapshot per call. *)

val cwnd : t -> float
(** Current congestion window in bytes (MSS-sized before establishment). *)

val peer_window : t -> int
val stream_finished : t -> bool
(** All written bytes are acknowledged and no close is pending. *)

type timer = Persist

include
  Sublayer.Compose.SUBLAYER
    with type t := t
     and type up_req = Iface.app_req
     and type up_ind = Iface.app_ind
     and type down_req = Iface.rd_req
     and type down_ind = Iface.rd_ind
     and type timer := timer
