(* Reference oracles for the record layer's kernels (in C, in
   lib/bitkit/crypto_kernels.c): the straightforward ChaCha20 /
   SipHash-2-4 / record seal-and-open code the kernels replaced, kept
   verbatim in spirit (tuples per quarter-round, boxed int64 state,
   string concatenation) because it is easy to check against the RFC and
   paper by eye. The RFC 8439 §2.1.1 vector tests [quarter_round] here.
   Property tests hold the library's kernels and [Rec] to these, byte
   for byte. *)

module Chacha20 = struct
  let mask = 0xFFFFFFFF
  let rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask

  let quarter_round (a, b, c, d) =
    let a = (a + b) land mask in
    let d = rotl (d lxor a) 16 in
    let c = (c + d) land mask in
    let b = rotl (b lxor c) 12 in
    let a = (a + b) land mask in
    let d = rotl (d lxor a) 8 in
    let c = (c + d) land mask in
    let b = rotl (b lxor c) 7 in
    (a, b, c, d)

  let word32_le s off =
    Char.code s.[off]
    lor (Char.code s.[off + 1] lsl 8)
    lor (Char.code s.[off + 2] lsl 16)
    lor (Char.code s.[off + 3] lsl 24)

  let qr st a b c d =
    let xa, xb, xc, xd = quarter_round (st.(a), st.(b), st.(c), st.(d)) in
    st.(a) <- xa;
    st.(b) <- xb;
    st.(c) <- xc;
    st.(d) <- xd

  let block ~key ~counter ~nonce =
    let init = Array.make 16 0 in
    init.(0) <- 0x61707865;
    init.(1) <- 0x3320646e;
    init.(2) <- 0x79622d32;
    init.(3) <- 0x6b206574;
    for i = 0 to 7 do
      init.(4 + i) <- word32_le key (4 * i)
    done;
    init.(12) <- counter land mask;
    for i = 0 to 2 do
      init.(13 + i) <- word32_le nonce (4 * i)
    done;
    let st = Array.copy init in
    for _ = 1 to 10 do
      qr st 0 4 8 12;
      qr st 1 5 9 13;
      qr st 2 6 10 14;
      qr st 3 7 11 15;
      qr st 0 5 10 15;
      qr st 1 6 11 12;
      qr st 2 7 8 13;
      qr st 3 4 9 14
    done;
    String.init 64 (fun i ->
        let w = (st.(i / 4) + init.(i / 4)) land mask in
        Char.chr ((w lsr (8 * (i mod 4))) land 0xFF))

  let encrypt ~key ?(counter = 1) ~nonce plaintext =
    let n = String.length plaintext in
    let out = Bytes.create n in
    let i = ref 0 in
    let blk = ref counter in
    while !i < n do
      let ks = block ~key ~counter:!blk ~nonce in
      let chunk = min 64 (n - !i) in
      for j = 0 to chunk - 1 do
        Bytes.set out (!i + j) (Char.chr (Char.code plaintext.[!i + j] lxor Char.code ks.[j]))
      done;
      i := !i + chunk;
      incr blk
    done;
    Bytes.to_string out
end

module Siphash = struct
  let rotl x n = Int64.logor (Int64.shift_left x n) (Int64.shift_right_logical x (64 - n))

  let word64_le s off =
    let r = ref 0L in
    for i = 7 downto 0 do
      r := Int64.logor (Int64.shift_left !r 8) (Int64.of_int (Char.code s.[off + i]))
    done;
    !r

  type state = { mutable v0 : int64; mutable v1 : int64; mutable v2 : int64; mutable v3 : int64 }

  let sipround s =
    s.v0 <- Int64.add s.v0 s.v1;
    s.v1 <- rotl s.v1 13;
    s.v1 <- Int64.logxor s.v1 s.v0;
    s.v0 <- rotl s.v0 32;
    s.v2 <- Int64.add s.v2 s.v3;
    s.v3 <- rotl s.v3 16;
    s.v3 <- Int64.logxor s.v3 s.v2;
    s.v0 <- Int64.add s.v0 s.v3;
    s.v3 <- rotl s.v3 21;
    s.v3 <- Int64.logxor s.v3 s.v0;
    s.v2 <- Int64.add s.v2 s.v1;
    s.v1 <- rotl s.v1 17;
    s.v1 <- Int64.logxor s.v1 s.v2;
    s.v2 <- rotl s.v2 32

  let hash ~key msg =
    let k0 = word64_le key 0 and k1 = word64_le key 8 in
    let s =
      { v0 = Int64.logxor 0x736f6d6570736575L k0;
        v1 = Int64.logxor 0x646f72616e646f6dL k1;
        v2 = Int64.logxor 0x6c7967656e657261L k0;
        v3 = Int64.logxor 0x7465646279746573L k1 }
    in
    let n = String.length msg in
    let full = n / 8 in
    for i = 0 to full - 1 do
      let m = word64_le msg (8 * i) in
      s.v3 <- Int64.logxor s.v3 m;
      sipround s;
      sipround s;
      s.v0 <- Int64.logxor s.v0 m
    done;
    let last = ref (Int64.shift_left (Int64.of_int (n land 0xFF)) 56) in
    for i = 0 to (n mod 8) - 1 do
      last :=
        Int64.logor !last
          (Int64.shift_left (Int64.of_int (Char.code msg.[(8 * full) + i])) (8 * i))
    done;
    s.v3 <- Int64.logxor s.v3 !last;
    sipround s;
    sipround s;
    s.v0 <- Int64.logxor s.v0 !last;
    s.v2 <- Int64.logxor s.v2 0xFFL;
    sipround s;
    sipround s;
    sipround s;
    sipround s;
    Int64.logxor (Int64.logxor s.v0 s.v1) (Int64.logxor s.v2 s.v3)

  let tag ~key msg =
    let h = hash ~key msg in
    String.init 8 (fun i ->
        Char.chr (Int64.to_int (Int64.shift_right_logical h (8 * i)) land 0xFF))
end

(* The record layer as it was built from string concatenations: record
   [le64 seq ‖ ciphertext ‖ tag], nonce [le16 port ‖ 0 0 ‖ le64 seq], tag
   over [le16 port ‖ le64 seq ‖ ciphertext]. *)
module Record = struct
  let le64 v = String.init 8 (fun i -> Char.chr ((v lsr (8 * i)) land 0xFF))
  let le16 v = String.init 2 (fun i -> Char.chr ((v lsr (8 * i)) land 0xFF))
  let nonce ~port ~seq = le16 port ^ "\000\000" ^ le64 seq

  let read_le64 s off =
    let b i = Char.code s.[off + i] in
    b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) lor (b 4 lsl 32)
    lor (b 5 lsl 40) lor (b 6 lsl 48) lor (b 7 lsl 56)

  let mac_key key =
    String.sub (Chacha20.block ~key ~counter:0 ~nonce:(String.make 12 '\000')) 0 16

  let seal ~key ~port ~seq pdu =
    let ciphertext = Chacha20.encrypt ~key ~nonce:(nonce ~port ~seq) pdu in
    let tag = Siphash.tag ~key:(mac_key key) (le16 port ^ le64 seq ^ ciphertext) in
    le64 seq ^ ciphertext ^ tag

  let open_ ~key ~port record =
    let n = String.length record in
    if n < 16 then None
    else begin
      let seq = read_le64 record 0 in
      let ciphertext = String.sub record 8 (n - 16) in
      let tag = String.sub record (n - 8) 8 in
      let expected = Siphash.tag ~key:(mac_key key) (le16 port ^ le64 seq ^ ciphertext) in
      if not (String.equal tag expected) then None
      else Some (Chacha20.encrypt ~key ~nonce:(nonce ~port ~seq) ciphertext)
    end
end
