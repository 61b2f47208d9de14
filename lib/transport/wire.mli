(** The standard TCP header (RFC 793, 20 bytes), used by the monolithic
    baseline and as the {!Shim}'s interop target. The checksum is the
    Internet checksum over the header and payload (no pseudo-header — the
    simulator has no IP layer underneath these experiments).

    The header has one writer, {!encode}, and one reader,
    {!decode_slice}, both working on the bytes in place through
    big-endian loads and stores. *)

type flags = {
  urg : bool;
  ack : bool;
  psh : bool;
  rst : bool;
  syn : bool;
  fin : bool;
}

val no_flags : flags

type t = {
  src_port : int;
  dst_port : int;
  seq : int;      (** 32-bit absolute *)
  ack : int;
  flags : flags;
  window : int;
}

val header_bytes : int

val encode : t -> payload:string -> string
(** The segment's exact bytes: the header (no options, each field masked
    to its width) then [payload], with the checksum over both stored in
    place. *)

val decode_slice : Bitkit.Slice.t -> (t * Bitkit.Slice.t) option
(** Validates the checksum over the viewed bytes, skips any options
    ([data_offset > 5]) and returns the payload as a zero-copy view.
    [None] for short, corrupt or inconsistent segments; never raises. *)

val peek_ports : Bitkit.Slice.t -> (int * int) option
(** [(src_port, dst_port)] from the first four bytes, without validating
    the rest (the host's demultiplexing view). *)

val pp : Format.formatter -> t -> unit
