(** The reliable-delivery sublayer (paper §3).

    RD delivers segments exactly once using the ISN pair CM supplies: it
    translates stream offsets to absolute sequence numbers "by adding the
    ISN", retransmits on timeout (Jacobson/Karels RTO with Karn's rule)
    and on duplicate acks (fast retransmit), processes SACK, and keeps
    track of the window of outstanding segments. Segments may be
    delivered upward out of order — reordering is OSR's job — and
    congestion signals are summarised upward as [`Acked]/[`Loss], in the
    style the paper borrows from Narayan et al.

    RD never looks inside OSR's bytes: data segments carry the OSR PDU
    opaquely, and pure acks are stamped with the latest OSR block that
    OSR pushed down via [`Set_block]. *)

type t

val initial :
  ?stats:Sublayer.Stats.scope ->
  ?span:Sublayer.Span.ctx ->
  Config.t ->
  now:(unit -> float) ->
  t
(** Counters (when [stats] is given): [segments_sent], [retransmits],
    [fast_retransmits], [timeouts], [acks_only], [dup_segments]. When
    [span] is given, each first transmission opens a [flight] span
    (closed by the {e receiving} RD at fresh delivery, correlated
    cross-host by ISN pair + offset); retransmissions record instant
    [retx] children of the original flight span. *)

type stats = {
  mutable segments_sent : int;
  mutable retransmits : int;
  mutable fast_retransmits : int;
  mutable timeouts : int;
  mutable acks_only : int;
  mutable dup_segments : int;
}

val stats : t -> stats
(** Fresh snapshot per call. *)

val rto : t -> float

val outstanding : t -> (int * bool * bool) list
(** The segments in flight, oldest first: each one's stream offset,
    whether a SACK block has covered it, and whether it has been
    retransmitted. *)

type timer = Rto | Ack_delay

include
  Sublayer.Compose.SUBLAYER
    with type t := t
     and type up_req = Iface.rd_req
     and type up_ind = Iface.rd_ind
     and type down_req = Iface.cm_req
     and type down_ind = Iface.cm_ind
     and type timer := timer
