(** The error-recovery (reliable delivery) sublayer of the data link
    (paper §2.1: "reliable delivery adds a header with sequence numbers to
    guarantee delivery using retransmissions, but depends on error
    detection").

    Three classic mechanisms — stop-and-wait, go-back-N and selective
    repeat — implement the single {!S} signature, so experiment E14 swaps
    them behind the same interface. All are full duplex and deliver each
    accepted payload exactly once, in order, assuming the sublayer below
    only ever delivers uncorrupted PDUs (the error-detection sublayer's
    contract). Payloads accepted beyond the window wait in a {!Fifo}
    backlog that costs O(1) per frame, however many are handed over at
    once. *)

type config = {
  window : int;  (** sender window (ignored by stop-and-wait) *)
  rto : float;   (** retransmission timeout, seconds *)
  max_retries : int;
      (** consecutive timeouts without forward progress before the
          sender declares the link dead and discards its backlog *)
}

val default_config : config

(** Wire format owned by this sublayer: a kind byte, a 16-bit sequence
    number, and for data PDUs the payload. *)
type pdu =
  | Data of int * string  (** [Data (seq16, payload)] *)
  | Ack of int            (** cumulative for go-back-N, individual else *)

val encode_pdu : pdu -> string
val decode_pdu : string -> pdu option

(** {2 Zero-copy wire crossing}

    On transmit the ARQ starts the packet's {!Bitkit.Wirebuf} — its
    header is pushed in front of the payload view without copying either
    — and on receive it decodes a {!Bitkit.Slice} of the verified frame,
    materialising the payload only at delivery. [encode_pdu]/[decode_pdu]
    remain as the reference string codec (and property tests check the
    two agree). *)

val data_wirebuf : seq:int -> string -> Bitkit.Wirebuf.t
val ack_wirebuf : int -> Bitkit.Wirebuf.t

type rx =
  | Rx_data of int * Bitkit.Slice.t  (** payload as a view of the frame *)
  | Rx_ack of int

val decode_pdu_slice : Bitkit.Slice.t -> rx option

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

(** The sender's backlog of payloads not yet admitted to the window: a
    persistent FIFO of two lists, O(1) amortised per payload, so a
    backlog of [n] payloads costs O(n) in all. A persistent queue
    re-reverses its back list on every pop whose result is thrown away,
    so the variants check the window before they {!Fifo.pop}. *)
module Fifo : sig
  type 'a t

  val empty : 'a t
  val is_empty : 'a t -> bool
  val push : 'a t -> 'a -> 'a t
  val pop : 'a t -> ('a * 'a t) option
end

(** Statistics every implementation maintains, for efficiency benches.
    Since the observability PR this is a read-only snapshot of the
    machine's {!counters}; the mutable fields remain only for
    compatibility with existing readers. *)
type stats = {
  mutable data_sent : int;        (** data PDUs sent, incl. retransmissions *)
  mutable retransmissions : int;
  mutable acks_sent : int;
  mutable delivered : int;
}

val fresh_stats : unit -> stats

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

val fresh_counters : unit -> counters
(** Counters in a private unregistered scope. *)

val snapshot : counters -> stats

module type S = sig
  include
    Sublayer.Machine.S
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
