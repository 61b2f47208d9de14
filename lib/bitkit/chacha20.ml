(* ChaCha20 (RFC 8439). The keystream is computed and XORed in
   crypto_kernels.c; this module checks every argument before the call,
   so the C code never sees an offset or length outside its buffers. The
   kernel reduces the counter and nonce words mod 2^32. *)

external xor_kernel :
  string ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  string ->
  (int[@untagged]) ->
  Bytes.t ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  unit = "bitkit_chacha20_xor_byte" "bitkit_chacha20_xor"
[@@noalloc]

let xor_stream ~key ~counter ~n0 ~n1 ~n2 src spos dst dpos len =
  if String.length key <> 32 then invalid_arg "Chacha20: key must be 32 bytes";
  if len < 0 || spos < 0 || dpos < 0
     || spos > String.length src - len || dpos > Bytes.length dst - len
  then invalid_arg "Chacha20.xor_stream";
  xor_kernel key counter n0 n1 n2 src spos dst dpos len

let nonce_word nonce i =
  if String.length nonce <> 12 then invalid_arg "Chacha20: nonce must be 12 bytes";
  Int32.to_int (String.get_int32_le nonce (4 * i))

let xor_sub ~key ?(counter = 1) ~nonce src spos dst dpos len =
  xor_stream ~key ~counter ~n0:(nonce_word nonce 0) ~n1:(nonce_word nonce 1)
    ~n2:(nonce_word nonce 2) src spos dst dpos len

let block ~key ~counter ~nonce =
  let b = Bytes.make 64 '\000' in
  xor_sub ~key ~counter ~nonce (Bytes.unsafe_to_string b) 0 b 0 64;
  Bytes.unsafe_to_string b

(* In place: each word is read before it is written, so [src] may alias
   [dst] at the same offset. *)
let xor_into ~key ?counter ~nonce b ~pos ~len =
  xor_sub ~key ?counter ~nonce (Bytes.unsafe_to_string b) pos b pos len

let encrypt ~key ?counter ~nonce plaintext =
  let n = String.length plaintext in
  let out = Bytes.create n in
  xor_sub ~key ?counter ~nonce plaintext 0 out 0 n;
  Bytes.unsafe_to_string out
