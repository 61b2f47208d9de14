(** SipHash-2-4 keyed hash (Aumasson–Bernstein).

    Used by the transport record sublayer as its authentication tag.
    Validated against the reference test vectors in the test suite, and
    against a straightforward reference implementation by property tests.

    The kernel is portable C (crypto_kernels.c), where the four state
    words live in 64-bit registers and rotate in one instruction each; it
    reads the message eight bytes at a time in place. Every argument is
    checked here, in OCaml, before the call. Hashing allocates nothing
    beyond the boxed [int64] a caller outside this module receives, and
    {!verify_prefixed}, {!tag_prefixed_into} and {!tag_into} allocate
    nothing at all. *)

val hash : key:string -> string -> int64
(** [hash ~key msg] with a 16-byte [key]. *)

val hash_sub : key:string -> string -> pos:int -> len:int -> int64
(** {!hash} over the substring [pos, pos+len) without copying it — how
    the pooled seal authenticates a record laid out in an arena slot. *)

val hash_prefixed :
  key:string -> prefix:int -> prefix_len:int -> string -> pos:int -> len:int -> int64
(** {!hash} of the [prefix_len] (at most 7) little-endian bytes of
    [prefix] followed by the substring [pos, pos+len): authenticates
    [header ‖ region] with no concatenation. [prefix_len = 0] is
    {!hash_sub}.

    @raise Invalid_argument if [key] is not 16 bytes, [prefix_len] is
    outside 0–7, or [pos], [len] leave [msg]; so do {!hash_sub},
    {!hash}, {!tag_into} and {!tag}. *)

val verify_prefixed :
  key:string ->
  prefix:int ->
  prefix_len:int ->
  string ->
  pos:int ->
  len:int ->
  tag_pos:int ->
  bool
(** [verify_prefixed ~key ~prefix ~prefix_len msg ~pos ~len ~tag_pos] is
    whether {!hash_prefixed} of the same arguments equals the 8
    little-endian bytes of [msg] at [tag_pos]: how a record's tag is
    checked in place, with no boxed [int64].

    @raise Invalid_argument as {!hash_prefixed} does, and also if
    [tag_pos, tag_pos+8) leaves [msg]. *)

val tag_prefixed_into :
  key:string ->
  prefix:int ->
  prefix_len:int ->
  string ->
  pos:int ->
  len:int ->
  Bytes.t ->
  int ->
  unit
(** [tag_prefixed_into ~key ~prefix ~prefix_len msg ~pos ~len dst dpos]
    writes {!hash_prefixed} of the same arguments into [dst] at [dpos] as
    8 little-endian bytes: how a record is tagged in place, with no
    boxed [int64].

    @raise Invalid_argument as {!hash_prefixed} does, and also if
    [dpos, dpos+8) leaves [dst]; then [dst] is untouched. *)

val tag_into : key:string -> string -> pos:int -> len:int -> Bytes.t -> int -> unit
(** [tag_into ~key msg ~pos ~len dst dpos] writes the 8-byte tag of the
    substring directly into [dst] at [dpos].

    @raise Invalid_argument also if [dpos, dpos+8) leaves [dst]. *)

val tag : key:string -> string -> string
(** The 8-byte little-endian serialisation of {!hash}. *)
