(** Immutable sequences of bits.

    A [Bitseq.t] is an arbitrary-length bit string with O(1) random access,
    stored MSB-first within bytes. It is the common currency between the
    physical-layer encodings, the framing sublayers and the verified
    bit-stuffing library (which prefers [bool list] but converts freely). *)

type t

val empty : t
val length : t -> int
val get : t -> int -> bool
(** [get t i] is bit [i] (0-based). Raises [Invalid_argument] out of range. *)

val of_bool_list : bool list -> t
val to_bool_list : t -> bool list
val of_bytes_bits : Bytes.t -> int -> t
(** [of_bytes_bits b len] views the first [len] bits of [b] (MSB-first
    packing) as a bit string; the buffer is copied and padding cleared. *)

val unsafe_of_bytes_bits : Bytes.t -> int -> t
(** [unsafe_of_bytes_bits b len] is {!of_bytes_bits} without the copy:
    the sequence takes ownership of [b], which must be exactly
    [(len + 7) / 8] bytes long and must not be mutated afterwards. Its
    padding is cleared. For kernels that write a fresh frame in place. *)

val of_string : string -> t
(** [of_string s] interprets each [char] of [s] as 8 bits, MSB first.
    The sequence shares the bytes of [s]. *)

val to_string : t -> string
(** [to_string t] packs bits into bytes (zero-padded to a byte boundary).
    The string shares the bytes of [t]: sequences are immutable. *)

val byte_at : t -> int -> int
(** [byte_at t pos] is the 8 bits starting at bit [pos] as an integer,
    MSB first, with bits past the end of [t] read as zero. [pos] must be
    non-negative. *)

val of_bits : string -> t
(** [of_bits "0110"] parses a literal of ['0']/['1'] characters. *)

val to_bits : t -> string
(** Inverse of {!of_bits}: a ['0']/['1'] rendering. *)

val append : t -> t -> t
val concat : t list -> t
(** One allocation for the result; whole bytes are copied at once and
    unaligned pieces are shifted in a byte at a time, as in {!append} and
    {!sub}. *)

val cons : bool -> t -> t
val snoc : t -> bool -> t
val sub : t -> int -> int -> t
(** [sub t pos len] is the [len]-bit slice starting at [pos]. *)

val equal : t -> t -> bool
(** Byte equality: every operation keeps the padding bits of the last
    byte zero, so [equal] agrees with [Stdlib.(=)]. *)

val compare : t -> t -> int
val is_prefix : prefix:t -> t -> bool
val find_sub : ?from:int -> pattern:t -> t -> int option
(** [find_sub ~from ~pattern t] is the index of the first occurrence of
    [pattern] in [t] that starts at or after [from] (default 0), if any.
    Patterns of up to [Sys.int_size - 7] bits (56 on 64-bit hosts) are
    matched against a rolling integer window a byte at a time, without
    allocating; longer ones take a bit-by-bit scan. Raises
    [Invalid_argument] unless [0 <= from <= length t]. *)

val popcount : t -> int
val map : (bool -> bool) -> t -> t
val flip : t -> int -> t
(** [flip t i] is [t] with bit [i] inverted (used for error injection). *)

val random : Rng.t -> int -> t
(** [random rng n] is a uniform random bit string of length [n]. *)

val fold_left : ('a -> bool -> 'a) -> 'a -> t -> 'a
val iteri : (int -> bool -> unit) -> t -> unit
val rev : t -> t
val repeat : t -> int -> t
(** [repeat t k] is [t] concatenated [k] times. *)

val pp : Format.formatter -> t -> unit
