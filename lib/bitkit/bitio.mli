(** Bit-granular readers and writers for header codecs.

    Every sublayer header in the repository is encoded/decoded through this
    module, which makes bit-level field boundaries explicit — the mechanism
    by which test T3 (each sublayer owns disjoint packet bits) is enforced
    and audited. Multi-bit fields are MSB-first (network order).

    Fields are packed and unpacked word by word, not bit by bit: a field
    of any width up to 62 bits, at any bit alignment, is shifted into (or
    out of) one integer accumulator and its whole bytes move at once. The
    writer takes the low [width] bits of the value, whatever lies above
    them; the reader checks a field against its limit before consuming
    any of it.

    The writer is backed by a growable byte buffer and supports
    reserve-then-patch ({!Writer.reserve_uint16}/{!Writer.patch_uint16}),
    so a checksum field can be written after the bytes it covers without a
    second encoding pass. The reader can be opened directly over a
    {!Slice.t} without copying. *)

module Writer : sig
  type t

  val create : ?size:int -> unit -> t
  (** [size] is the initial buffer capacity in bytes (default 64). *)

  val bit : t -> bool -> unit
  val bits : t -> int -> int -> unit
  (** [bits w value width] appends the low [width] bits of [value], MSB
      first, at whatever bit position the writer has reached; the bits of
      [value] above [width] (its sign included) are ignored.
      [0 <= width <= 62]. *)

  val uint8 : t -> int -> unit
  val uint16 : t -> int -> unit
  val uint32 : t -> int -> unit

  val bytes : t -> string -> unit
  (** [bytes w s] appends [s]; the writer must be byte-aligned. The copy
      is charged to {!Slice.copied_bytes}. *)

  val slice : t -> Slice.t -> unit
  (** [slice w sl] appends the viewed bytes (byte-aligned, counted). *)

  val reserve_uint16 : t -> int
  (** Appends a 16-bit zero placeholder and returns a token for
      {!patch_uint16}. The writer must be byte-aligned. *)

  val patch_uint16 : t -> int -> int -> unit
  (** [patch_uint16 w token v] overwrites a reserved field in place. *)

  val internet_checksum : t -> int
  (** RFC 1071 one's-complement checksum over the bytes written so far
      (reserved fields still hold zero, which contributes nothing). *)

  val pad_to_byte : t -> unit
  val bit_length : t -> int
  val byte_length : t -> int
  val contents : t -> string
  (** Zero-pads to a byte boundary and returns the packed bytes. *)

  val to_slice : t -> Slice.t
end

module Reader : sig
  type t

  exception Truncated

  val of_string : string -> t
  val of_slice : Slice.t -> t
  (** Reads directly out of the slice's base string — no copy. *)

  val bit : t -> bool
  val bits : t -> int -> int
  (** [bits r width] reads the next [width] bits, MSB first, as a
      non-negative int. [0 <= width <= 62]. A field that runs past the
      reader's limit raises {!Truncated} without consuming anything: the
      reader stays where the field began. *)

  val uint8 : t -> int
  val uint16 : t -> int
  val uint32 : t -> int
  val bytes : t -> int -> string
  (** [bytes r n] reads [n] whole bytes; the reader must be byte-aligned.
      The copy is charged to {!Slice.copied_bytes}. *)

  val skip_to_byte : t -> unit
  val remaining_bits : t -> int
  val rest : t -> string
  (** All remaining bytes, copied out (reader must be byte-aligned). *)

  val rest_slice : t -> Slice.t
  (** All remaining bytes as a zero-copy view (byte-aligned). *)
end
