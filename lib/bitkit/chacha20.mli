(** ChaCha20 stream cipher (RFC 8439).

    Used by the transport record sublayer for payload confidentiality.
    The implementation is validated against the RFC's block-function
    test vector in the test suite, and against a straightforward
    reference implementation (test/crypto_oracle.ml, which also carries
    the RFC's quarter-round vector) by property tests. Encryption and
    decryption are the same operation (XOR keystream).

    Every entry point runs one kernel ({!xor_stream}), written in
    portable C (crypto_kernels.c) because OCaml has no rotate and spills
    the sixteen-word state: the kernel rotates each 32-bit word in one
    instruction, XORs each keystream word straight into the destination
    and parses the key once per call. Every argument is checked here, in
    OCaml, before the call, and a call allocates nothing beyond the
    output the caller asked for. *)

val xor_stream :
  key:string ->
  counter:int ->
  n0:int ->
  n1:int ->
  n2:int ->
  string ->
  int ->
  Bytes.t ->
  int ->
  int ->
  unit
(** [xor_stream ~key ~counter ~n0 ~n1 ~n2 src spos dst dpos len] writes
    [src.[spos..spos+len-1]] XOR the keystream into [dst] at [dpos],
    starting at block [counter]. The 12-byte nonce is given as its three
    little-endian 32-bit words, so callers that derive it from integers
    (the record sublayer's port and sequence number) build no string.
    [src] may be [Bytes.unsafe_to_string dst] with [spos = dpos]: the
    transform then runs in place. [counter] and the nonce words are taken
    mod 2{^32}, and the block counter wraps there.

    @raise Invalid_argument if [key] is not 32 bytes, or if [len],
    [spos] or [dpos] is negative or either range leaves its buffer. *)

val block : key:string -> counter:int -> nonce:string -> string
(** [block ~key ~counter ~nonce] is the 64-byte keystream block for a
    32-byte [key] and 12-byte [nonce].

    @raise Invalid_argument on any other key or nonce length, here and
    in {!encrypt} and {!xor_into}. *)

val encrypt : key:string -> ?counter:int -> nonce:string -> string -> string
(** XOR the input with the keystream starting at block [counter]
    (default 1, as in the RFC's AEAD construction). *)

val xor_into :
  key:string -> ?counter:int -> nonce:string -> Bytes.t -> pos:int -> len:int -> unit
(** In-place {!encrypt} over [b.[pos..pos+len-1]]. *)
