(** The error-recovery (reliable delivery) sublayer of the data link
    (paper §2.1: "reliable delivery adds a header with sequence numbers to
    guarantee delivery using retransmissions, but depends on error
    detection").

    Three classic mechanisms — stop-and-wait, go-back-N and selective
    repeat — implement the single {!S} signature, so experiment E14 swaps
    them behind the same interface. All are full duplex and deliver each
    accepted payload exactly once, in order, assuming the sublayer below
    only ever delivers uncorrupted PDUs (the error-detection sublayer's
    contract). Payloads accepted beyond the window wait in a
    {!Bitkit.Fifo} backlog that costs O(1) per frame, however many are
    handed over at once. *)

type config = {
  window : int;  (** sender window (ignored by stop-and-wait) *)
  rto : float;   (** retransmission timeout, seconds *)
  max_retries : int;
      (** consecutive timeouts without forward progress before the
          sender declares the link dead and discards its backlog *)
}

val default_config : config

(** {2 Wire format}

    This sublayer owns a 3-byte header: a kind byte (0 data, 1 ack) and a
    big-endian 16-bit sequence number, followed by the payload in a data
    PDU. It has one writer and one reader. On transmit the ARQ starts the
    packet's {!Bitkit.Wirebuf}: the header's bytes, written by stores, are
    pushed in front of the payload without copying it. On receive it
    reads a {!Bitkit.Slice} of the verified frame in place, materialising
    the payload only at delivery. *)

val header_bytes : int

val data_wirebuf : seq:int -> string -> Bitkit.Wirebuf.t
(** A data PDU; [seq] is stored as its low 16 bits. *)

val ack_wirebuf : int -> Bitkit.Wirebuf.t
(** An ACK (cumulative for go-back-N, individual else): the header
    alone. *)

type rx =
  | Rx_data of int * Bitkit.Slice.t  (** payload as a view of the frame *)
  | Rx_ack of int

val decode_pdu_slice : Bitkit.Slice.t -> rx option
(** One length check, then the fields in place. A data PDU needs kind 0;
    an ACK needs kind 1 and exactly {!header_bytes} bytes. [None] for
    anything else; never raises. *)

(** {2 Frame-identity correlation}

    A key both ends of a link can reconstruct from a data frame alone
    (wire sequence number, payload length, cheap payload digest). The
    sender binds it to the flight span in the shared tracer; the
    receiver {!Sublayer.Span.take}s it at first delivery so the deliver
    instant joins the sending flight's trace instead of starting an
    orphan one. *)

val digest_string : string -> int
val digest_slice : Bitkit.Slice.t -> int
(** FNV-1a over the payload bytes, truncated to 30 bits; the string and
    slice variants agree on equal byte content. *)

val frame_key : seq:int -> len:int -> digest:int -> string

(** Statistics every implementation maintains, for efficiency benches:
    a read-only snapshot of the machine's {!counters}. *)
type stats = {
  data_sent : int;        (** data PDUs sent, incl. retransmissions *)
  retransmissions : int;
  acks_sent : int;
  delivered : int;
}

(** The counter bundle every ARQ variant owns and bumps on its hot path
    (fields exposed so the sibling implementations can reach them). *)
type counters = {
  c_data_sent : Sublayer.Stats.counter;
  c_retransmissions : Sublayer.Stats.counter;
  c_acks_sent : Sublayer.Stats.counter;
  c_delivered : Sublayer.Stats.counter;
  c_give_ups : Sublayer.Stats.counter;
}

val counters_in : Sublayer.Stats.scope -> counters
(** Find-or-create the five counters in [scope]. *)

val scope : string
(** ["arq"]: the scope every variant counts under. *)

val fresh_counters : unit -> counters
(** Counters in a private unregistered scope. *)

val snapshot : counters -> stats

module type S = sig
  include
    Sublayer.Compose.SUBLAYER
      with type up_req = string
       and type up_ind = string
       and type down_req = Bitkit.Wirebuf.t
       and type down_ind = Bitkit.Slice.t

  val initial : ?stats:Sublayer.Stats.scope -> ?span:Sublayer.Span.ctx -> config -> t
  (** [initial ?stats ?span cfg]: when [stats] is given, the machine
      registers its counters there (names [data_sent], [retransmissions],
      [acks_sent], [delivered], [give_ups]). When [span] is given, each
      admitted payload gets a "flight" span (send → ack) with
      retransmissions recorded as child spans of the original send. *)

  val stats : t -> stats
  val idle : t -> bool
  (** No unacknowledged or queued data (transfer complete). *)

  val gave_up : t -> bool
  (** The sender exhausted [max_retries] consecutive timeouts and
      dropped its backlog; the link should be considered down. *)
end

val seqspace : Sublayer.Seqspace.t
(** The 16-bit space shared by all implementations. *)
