(** The framing sublayer (paper §2.1): converts a byte PDU to a delimited
    bit string and back. Four interchangeable mechanisms are provided; the
    HDLC one is built directly on the verified stuffing library of §4.1,
    so the framing used by the data-link experiments is the one whose
    correctness lemmas are machine-checked. *)

type t = {
  name : string;
  frame : Bitkit.Slice.t -> Bitkit.Bitseq.t;
      (** Frames the viewed bytes, which may sit in a larger buffer such
          as a {!Bitkit.Pool} slot; the frame shares nothing with it. *)
  deframe : Bitkit.Bitseq.t -> string option;
      (** [None] when the bits are not a well-formed frame. *)
}

val hdlc : Stuffing.Rule.scheme -> t
(** Bit stuffing + flags per the given scheme (use [Stuffing.Rule.hdlc]
    for classic HDLC, [Stuffing.Rule.paper_best] for the improved one).
    [frame] reads the slice in place ({!Stuffing.Fast.encode_sub} over its
    base), so framing copies no payload byte. Payload bits that are not a
    whole number of bytes after unstuffing are rejected. The scheme's
    {!Stuffing.Fast} tables are built here, once. *)

val cobs : t
(** Consistent Overhead Byte Stuffing with a 0x00 terminator. [frame]
    copies a narrowed slice out first ({!Bitkit.Slice.to_string}). *)

val dle_stx : t
(** DLE/STX ... DLE/ETX character framing with DLE doubling. [frame]
    copies a narrowed slice out first. *)

val length_prefix : t
(** 16-bit big-endian length prefix; no resynchronisation properties, the
    baseline "framing for free" scheme. [frame] copies a narrowed slice
    out first. *)

val all : t list
