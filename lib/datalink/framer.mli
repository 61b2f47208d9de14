(** The framing sublayer (paper §2.1): converts a byte PDU to a delimited
    bit string and back. Four interchangeable mechanisms are provided; the
    HDLC one is built directly on the verified stuffing library of §4.1,
    so the framing used by the data-link experiments is the one whose
    correctness lemmas are machine-checked. *)

type t = {
  name : string;
  frame : string -> Bitkit.Bitseq.t;
  deframe : Bitkit.Bitseq.t -> string option;
      (** [None] when the bits are not a well-formed frame. *)
}

val hdlc : Stuffing.Rule.scheme -> t
(** Bit stuffing + flags per the given scheme (use [Stuffing.Rule.hdlc]
    for classic HDLC, [Stuffing.Rule.paper_best] for the improved one).
    Payload bits that are not a whole number of bytes after unstuffing are
    rejected. The scheme's {!Stuffing.Fast} tables are built here, once. *)

val cobs : t
(** Consistent Overhead Byte Stuffing with a 0x00 terminator. *)

val dle_stx : t
(** DLE/STX ... DLE/ETX character framing with DLE doubling. *)

val length_prefix : t
(** 16-bit big-endian length prefix; no resynchronisation properties, the
    baseline "framing for free" scheme. *)

val all : t list

val framed_bits : t -> string -> int
(** Size in bits of a framed payload (for overhead comparisons). *)
