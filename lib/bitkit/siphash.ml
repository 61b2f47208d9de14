(* SipHash-2-4. The hash is computed in crypto_kernels.c; this module
   checks every argument before the call, so the C code never reads
   outside the message. *)

external hash_kernel :
  string ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  string ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int64[@unboxed]) = "bitkit_siphash24_byte" "bitkit_siphash24"
[@@noalloc]

(* Inlined into [tag_into], whose result then never leaves a register. *)
let[@inline] hash_prefixed ~key ~prefix ~prefix_len msg ~pos ~len =
  if String.length key <> 16 then invalid_arg "Siphash: key must be 16 bytes";
  if pos < 0 || len < 0 || pos > String.length msg - len || prefix_len < 0
     || prefix_len > 7
  then invalid_arg "Siphash.hash_sub";
  hash_kernel key prefix prefix_len msg pos len

let hash_sub ~key msg ~pos ~len = hash_prefixed ~key ~prefix:0 ~prefix_len:0 msg ~pos ~len

(* The hash never leaves a register, so a caller in another module gets
   a [bool] and no boxed [int64]. *)
let verify_prefixed ~key ~prefix ~prefix_len msg ~pos ~len ~tag_pos =
  if tag_pos < 0 || tag_pos > String.length msg - 8 then invalid_arg "Siphash.verify_prefixed";
  Int64.equal
    (hash_prefixed ~key ~prefix ~prefix_len msg ~pos ~len)
    (String.get_int64_le msg tag_pos)

(* The hash goes from a register straight into [dst], so a caller in
   another module boxes nothing. *)
let tag_prefixed_into ~key ~prefix ~prefix_len msg ~pos ~len dst dpos =
  if dpos < 0 || dpos > Bytes.length dst - 8 then invalid_arg "Siphash.tag_prefixed_into";
  Bytes.set_int64_le dst dpos (hash_prefixed ~key ~prefix ~prefix_len msg ~pos ~len)

let hash ~key msg = hash_sub ~key msg ~pos:0 ~len:(String.length msg)

let tag_into ~key msg ~pos ~len dst dpos =
  Bytes.set_int64_le dst dpos (hash_prefixed ~key ~prefix:0 ~prefix_len:0 msg ~pos ~len)

let tag ~key msg =
  let b = Bytes.create 8 in
  tag_into ~key msg ~pos:0 ~len:(String.length msg) b 0;
  Bytes.unsafe_to_string b
