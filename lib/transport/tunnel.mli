(** An established transport connection presented as a
    {!Sublayer.Link} — the adapter that makes sublayering recursive
    (the paper's §5 / Ouroboros direction).

    The tunnel frames whole wire segments into the outer connection's
    byte stream (4-byte big-endian length prefix per record) and parses
    them back out on delivery, so an inner {!Host} — a complete
    sublayered-TCP stack with its own congestion control, ARQ, monitors
    and spans — runs {e over} an outer connection exactly as it runs
    over a [Sim.Channel].  Works over any factory, including
    [Tcp_secure] ([Rec]-sealed records: an encrypted VPN carrying inner
    connections).

    Death propagates: when the outer connection aborts, resets or
    closes, the link dies and every inner stack riding it is halted by
    its host (inner ARQ/RD must give up, not retransmit into a dead
    tunnel).  Closing the link closes the outer connection instead
    (orderly FIN). *)

type t

val create : ?id:string -> ?mtu:int -> ?cost:float -> Host.conn -> t
(** Wrap [conn].  [mtu], when given, is advertised as the link's MTU
    hint so the inner host caps its MSS to what fits one record
    comfortably.  [cost] defaults to 1.  The tunnel takes over the
    connection's [on_event] callback and drains its receive buffer on
    each [`Data] event; don't share [conn] with another consumer. *)

val link : t -> Bitkit.Slice.t Sublayer.Link.t
(** The link to hand to an inner {!Host.create}. *)

val outer : t -> Host.conn

val frames_in : t -> int
(** Complete records parsed out of the outer stream so far. *)

val frames_out : t -> int

val max_frame : int
(** Largest record length a prefix may announce (16 MiB). A larger one
    means the framing is broken beyond recovery, and the link is
    killed. *)

(** The receive half of the framing, exposed for tests: it turns the
    outer byte stream, cut into whatever chunks the outer connection
    delivers, back into records. Bytes of an incomplete record are kept
    as the chunks they came in and joined once, when the record is
    whole, so the work is linear in the record size however finely the
    stream is cut. *)
module Deframer : sig
  type t

  val create : unit -> t

  val push : t -> string -> deliver:(Bitkit.Slice.t -> unit) -> bool
  (** Append stream bytes and [deliver] every record they complete, in
      order, as a view valid for as long as the caller keeps it.
      [false] once a prefix has exceeded {!max_frame}; the deframer then
      delivers nothing more. *)

  val buffered : t -> int
  (** Bytes held for the incomplete record at the stream's head. *)
end
