(* Unit and property tests for the bit-level substrate. *)

open Bitkit

let check = Alcotest.check
let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let bits_gen =
  QCheck2.Gen.(map (fun l -> Bitseq.of_bool_list l) (list_size (0 -- 200) bool))

let string_gen = QCheck2.Gen.(string_size ~gen:char (0 -- 200))

(* --- Bitseq --- *)

let test_bitseq_literals () =
  let b = Bitseq.of_bits "0110101" in
  check Alcotest.int "length" 7 (Bitseq.length b);
  check Alcotest.string "roundtrip" "0110101" (Bitseq.to_bits b);
  check Alcotest.bool "get 0" false (Bitseq.get b 0);
  check Alcotest.bool "get 1" true (Bitseq.get b 1);
  check Alcotest.bool "get 6" true (Bitseq.get b 6);
  Alcotest.check_raises "oob" (Invalid_argument "Bitseq.get") (fun () ->
      ignore (Bitseq.get b 7))

let test_bitseq_bytes () =
  let b = Bitseq.of_string "\x80\x01" in
  check Alcotest.int "length" 16 (Bitseq.length b);
  check Alcotest.string "bits" "1000000000000001" (Bitseq.to_bits b);
  check Alcotest.string "bytes roundtrip" "\x80\x01" (Bitseq.to_string b)

let test_bitseq_ops () =
  let a = Bitseq.of_bits "101" and b = Bitseq.of_bits "01" in
  check Alcotest.string "append" "10101" (Bitseq.to_bits (Bitseq.append a b));
  check Alcotest.string "cons" "1101" (Bitseq.to_bits (Bitseq.cons true (Bitseq.of_bits "101")));
  check Alcotest.string "snoc" "1010" (Bitseq.to_bits (Bitseq.snoc a false));
  check Alcotest.string "sub" "01" (Bitseq.to_bits (Bitseq.sub a 1 2));
  check Alcotest.string "rev" "101" (Bitseq.to_bits (Bitseq.rev a));
  check Alcotest.int "popcount" 2 (Bitseq.popcount a);
  check Alcotest.string "repeat" "101101101" (Bitseq.to_bits (Bitseq.repeat a 3));
  check Alcotest.bool "prefix yes" true (Bitseq.is_prefix ~prefix:(Bitseq.of_bits "10") a);
  check Alcotest.bool "prefix no" false (Bitseq.is_prefix ~prefix:(Bitseq.of_bits "11") a)

let test_bitseq_find_sub () =
  let hay = Bitseq.of_bits "0011010011" in
  check Alcotest.(option int) "found" (Some 2)
    (Bitseq.find_sub ~pattern:(Bitseq.of_bits "1101") hay);
  check Alcotest.(option int) "missing" None
    (Bitseq.find_sub ~pattern:(Bitseq.of_bits "11111") hay);
  check Alcotest.(option int) "empty pattern" (Some 0)
    (Bitseq.find_sub ~pattern:Bitseq.empty hay);
  check Alcotest.(option int) "first of several" (Some 2)
    (Bitseq.find_sub ~pattern:(Bitseq.of_bits "11") hay);
  check Alcotest.(option int) "at end" (Some 5)
    (Bitseq.find_sub ~pattern:(Bitseq.of_bits "10011") hay)

let test_bitseq_flip () =
  let b = Bitseq.of_bits "0000" in
  check Alcotest.string "flip 2" "0010" (Bitseq.to_bits (Bitseq.flip b 2));
  check Alcotest.bool "flip twice is id" true
    (Bitseq.equal b (Bitseq.flip (Bitseq.flip b 1) 1))

let prop_bitseq_roundtrip =
  qtest "bool list roundtrip" QCheck2.Gen.(list_size (0 -- 100) bool) (fun l ->
      Bitseq.to_bool_list (Bitseq.of_bool_list l) = l)

let prop_bitseq_equal_structural =
  qtest "equality ignores construction path" bits_gen (fun b ->
      let rebuilt = Bitseq.concat (List.map (fun x -> Bitseq.of_bool_list [ x ]) (Bitseq.to_bool_list b)) in
      Bitseq.equal b rebuilt && Bitseq.compare b rebuilt = 0)

let prop_bitseq_append_length =
  qtest "append length" QCheck2.Gen.(pair bits_gen bits_gen) (fun (a, b) ->
      Bitseq.length (Bitseq.append a b) = Bitseq.length a + Bitseq.length b)

let prop_bitseq_of_bytes_bits =
  qtest "of_bytes_bits prefix view" QCheck2.Gen.(pair string_gen (0 -- 64)) (fun (s, n) ->
      let n = min n (8 * String.length s) in
      let whole = Bitseq.of_string s in
      Bitseq.equal (Bitseq.of_bytes_bits (Bytes.of_string s) n) (Bitseq.sub whole 0 n))

(* Oracle properties: every byte-level operation against the same
   operation on [bool list]s. Lengths run to 300 bits and offsets are
   mostly unaligned. [canonical] checks the padding invariant after each
   operation: a result equals (by [Stdlib.(=)]) the sequence rebuilt from
   its bits, so its padding bits are zero and [equal] stays byte
   equality. *)

let canonical t = t = Bitseq.of_bool_list (Bitseq.to_bool_list t)
let agrees t l = canonical t && Bitseq.to_bool_list t = l
let list_gen = QCheck2.Gen.(list_size (0 -- 300) bool)
let rec take n = function x :: tl when n > 0 -> x :: take (n - 1) tl | _ -> []
let rec drop n = function _ :: tl when n > 0 -> drop (n - 1) tl | l -> l

let prop_oracle_sub =
  let gen =
    QCheck2.Gen.(
      list_gen >>= fun l ->
      let n = List.length l in
      0 -- n >>= fun pos -> map (fun len -> (l, pos, len)) (0 -- (n - pos)))
  in
  qtest "oracle: sub" gen (fun (l, pos, len) ->
      agrees (Bitseq.sub (Bitseq.of_bool_list l) pos len) (take len (drop pos l)))

let prop_oracle_append =
  qtest "oracle: append" QCheck2.Gen.(pair list_gen list_gen) (fun (a, b) ->
      agrees (Bitseq.append (Bitseq.of_bool_list a) (Bitseq.of_bool_list b)) (a @ b))

let prop_oracle_concat =
  qtest "oracle: concat" QCheck2.Gen.(list_size (0 -- 6) (list_size (0 -- 100) bool))
    (fun ls -> agrees (Bitseq.concat (List.map Bitseq.of_bool_list ls)) (List.concat ls))

let prop_oracle_flip =
  let gen =
    QCheck2.Gen.(
      list_size (1 -- 300) bool >>= fun l ->
      map (fun i -> (l, i)) (0 -- (List.length l - 1)))
  in
  qtest "oracle: flip" gen (fun (l, i) ->
      agrees (Bitseq.flip (Bitseq.of_bool_list l) i)
        (List.mapi (fun j b -> if j = i then not b else b) l))

let prop_oracle_byte_at =
  let gen = QCheck2.Gen.(pair list_gen (0 -- 310)) in
  qtest "oracle: byte_at" gen (fun (l, pos) ->
      let bit j = match List.nth_opt l j with Some true -> 1 | _ -> 0 in
      let want = List.fold_left (fun acc j -> (acc lsl 1) lor bit (pos + j)) 0 [ 0; 1; 2; 3; 4; 5; 6; 7 ] in
      Bitseq.byte_at (Bitseq.of_bool_list l) pos = want)

(* First index [>= from] where [p] occurs in [l]. *)
let find_ref ~from p l =
  let a = Array.of_list l and p = Array.of_list p in
  let m = Array.length p and n = Array.length a in
  let rec at i j = j >= m || (a.(i + j) = p.(j) && at i (j + 1)) in
  let rec go i = if i + m > n then None else if at i 0 then Some i else go (i + 1) in
  go from

(* Patterns of 0, 1-56 and 57-80 bits (the last take the generic scan),
   random or cut from the haystack so that matches are common. *)
let prop_oracle_find_sub =
  let gen =
    QCheck2.Gen.(
      list_gen >>= fun hay ->
      let n = List.length hay in
      oneof
        [ return [];
          list_size (1 -- 56) bool;
          list_size (57 -- 80) bool;
          (0 -- n >>= fun pos -> map (fun len -> take len (drop pos hay)) (1 -- 56));
          (0 -- n >>= fun pos -> map (fun len -> take len (drop pos hay)) (57 -- 80)) ]
      >>= fun pat -> map (fun from -> (hay, pat, from)) (0 -- n))
  in
  qtest ~count:1000 "oracle: find_sub" gen (fun (hay, pat, from) ->
      Bitseq.find_sub ~from ~pattern:(Bitseq.of_bool_list pat) (Bitseq.of_bool_list hay)
      = find_ref ~from pat hay)

(* --- Bitio_oracle: the bit codec every codec oracle is written in --- *)

module BO = Bitio_oracle

let test_bitio_fields () =
  let w = BO.Writer.create () in
  BO.Writer.bits w 0b101 3;
  BO.Writer.bits w 0b01 2;
  BO.Writer.bits w 0b110 3;
  BO.Writer.uint16 w 0xBEEF;
  let s = BO.Writer.contents w in
  check Alcotest.int "packed length" 3 (String.length s);
  let r = BO.Reader.of_string s in
  check Alcotest.int "f1" 0b101 (BO.Reader.bits r 3);
  check Alcotest.int "f2" 0b01 (BO.Reader.bits r 2);
  check Alcotest.int "f3" 0b110 (BO.Reader.bits r 3);
  check Alcotest.int "u16" 0xBEEF (BO.Reader.uint16 r)

let test_bitio_truncated () =
  let r = BO.Reader.of_string "\x01" in
  ignore (BO.Reader.uint8 r);
  Alcotest.check_raises "truncated" BO.Reader.Truncated (fun () ->
      ignore (BO.Reader.bit r))

let test_bitio_alignment () =
  let w = BO.Writer.create () in
  BO.Writer.bit w true;
  Alcotest.check_raises "unaligned bytes"
    (Invalid_argument "Bitio_oracle.Writer.bytes: not byte-aligned") (fun () ->
      BO.Writer.bytes w "x");
  BO.Writer.pad_to_byte w;
  BO.Writer.bytes w "x";
  check Alcotest.int "bits" 16 (BO.Writer.bit_length w)

let prop_bitio_u32_roundtrip =
  qtest "uint32 roundtrip" QCheck2.Gen.(0 -- 0xFFFF_FFFF) (fun v ->
      let w = BO.Writer.create () in
      BO.Writer.uint32 w v;
      let r = BO.Reader.of_string (BO.Writer.contents w) in
      BO.Reader.uint32 r = v)

(* --- Crc --- *)

let test_crc_catalogue () =
  List.iter
    (fun p ->
      let t = Crc.make p in
      check Alcotest.bool (p.Crc.name ^ " self test") true (Crc.self_test t))
    Crc.all

let test_crc_detects_flip () =
  let t = Crc.make Crc.crc32 in
  let msg = "the quick brown fox jumps over the lazy dog" in
  let base = Crc.digest t msg in
  for byte = 0 to String.length msg - 1 do
    let corrupted = Bytes.of_string msg in
    Bytes.set corrupted byte (Char.chr (Char.code msg.[byte] lxor 0x10));
    if Crc.digest t (Bytes.to_string corrupted) = base then
      Alcotest.failf "flip at byte %d undetected" byte
  done

let test_crc_digest_sub () =
  let t = Crc.make Crc.crc16_ccitt in
  check Alcotest.bool "sub matches" true
    (Crc.digest_sub t "xx123456789yy" 2 9 = Crc.digest t "123456789")

let prop_crc_incremental_disjoint =
  qtest "different strings different crc (mostly)" QCheck2.Gen.(pair string_gen string_gen)
    (fun (a, b) ->
      let t = Crc.make Crc.crc64_xz in
      a = b || Crc.digest t a <> Crc.digest t b)

(* --- Crc kernel = the byte-at-a-time oracle --- *)

module CO = Crc_oracle

(* The catalogue, and random CRCs of every width and both bit orders. *)
let crc_params_gen =
  QCheck2.Gen.(
    let random =
      let* width = int_range 8 64 and* refl = bool in
      let* poly = int64 and* init = int64 and* xorout = int64 in
      let m = CO.mask_of_width width in
      return
        { Crc.name = Printf.sprintf "random-%d%s" width (if refl then "-refl" else "");
          width; poly = Int64.logand poly m; init = Int64.logand init m; refin = refl;
          refout = refl; xorout = Int64.logand xorout m; check = 0L }
    in
    oneof [ oneofl Crc.all; random ])

(* Lengths cluster on 0-16 bytes and on the 8-byte word edges, and spread
   up to 3000; the message sits at a non-zero offset of a larger string,
   and the chain-digest path splits it at up to four random points. *)
let crc_case_gen =
  QCheck2.Gen.(
    let* p = crc_params_gen in
    let* len =
      oneof
        [ int_range 0 16;
          map2 (fun k d -> max 0 ((8 * k) + d)) (int_range 0 375) (int_range (-1) 1);
          int_range 0 3000 ]
    in
    let* msg = string_size ~gen:char (return len) and* pre = int_range 1 9
    and* post = int_range 0 9 in
    let* cuts = list_size (int_range 0 4) (int_range 0 len) in
    return (p, msg, pre, post, List.sort compare cuts))

let prop_crc_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"crc digest_sub/chained update = oracle"
       ~print:(fun ((p : Crc.params), msg, pre, _, cuts) ->
         Printf.sprintf "%s width=%d poly=%Lx init=%Lx xorout=%Lx len=%d pre=%d cuts=[%s]"
           p.name p.width p.poly p.init p.xorout (String.length msg) pre
           (String.concat ";" (List.map string_of_int cuts)))
       crc_case_gen
       (fun (p, msg, pre, post, cuts) ->
         let t = Crc.make p and o = CO.make p in
         let len = String.length msg in
         let framed = String.make pre '<' ^ msg ^ String.make post '>' in
         let chained =
           let reg, last =
             List.fold_left
               (fun (reg, from) cut -> (Crc.update t reg framed (pre + from) (cut - from), cut))
               (Crc.init t, 0) cuts
           in
           Crc.update t reg framed (pre + last) (len - last)
         in
         let expect = CO.update o (CO.init o) msg 0 len in
         Crc.init t = CO.init o
         && chained = expect
         && Crc.finish t chained = CO.digest o msg
         && Crc.digest_sub t framed pre len = CO.digest o msg))

(* One update over 1 KiB allocates its boxed int64 result and nothing
   else, whatever the width and bit order. *)
let test_crc_update_allocation () =
  let s = String.make 1024 'c' in
  let calls = 1000 in
  List.iter
    (fun p ->
      let t = Crc.make p in
      let before = Gc.minor_words () in
      for _ = 1 to calls do
        ignore (Sys.opaque_identity (Crc.update t (Crc.init t) s 0 1024))
      done;
      let words = (Gc.minor_words () -. before) /. float_of_int calls in
      check Alcotest.bool (Printf.sprintf "%s update 1 KiB: %.1f words/call" p.Crc.name words)
        true (words <= 3.))
    Crc.all

(* --- Checksum --- *)

let test_internet_checksum () =
  (* classic example from RFC 1071 derivations *)
  let s = "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  check Alcotest.int "value" 0x220d (Checksum.internet s);
  (* embedding the checksum verifies *)
  let c = Checksum.internet s in
  let framed = s ^ String.init 2 (fun i -> Char.chr ((c lsr (8 * (1 - i))) land 0xFF)) in
  check Alcotest.bool "self-verifies" true (Checksum.internet_valid framed)

let test_parity () =
  check Alcotest.bool "odd ones" true (Checksum.parity "\x01");
  check Alcotest.bool "even ones" false (Checksum.parity "\x03");
  check Alcotest.bool "empty" false (Checksum.parity "")

let test_fletcher_adler () =
  check Alcotest.int "fletcher16 abcde" 0xC8F0 (Checksum.fletcher16 "abcde");
  check Alcotest.bool "adler32 Wikipedia" true
    (Checksum.adler32 "Wikipedia" = 0x11E60398l)

let prop_internet_valid =
  qtest "internet checksum self-verification" string_gen (fun s ->
      let c = Checksum.internet s in
      let tail = String.init 2 (fun i -> Char.chr ((c lsr (8 * (1 - i))) land 0xFF)) in
      (* Zero-pads odd bodies, so restrict to even length. *)
      String.length s land 1 = 1 || Checksum.internet_valid (s ^ tail))

(* --- Chacha20 / Siphash (RFC vectors) --- *)

(* RFC 8439 §2.1.1. The library's kernel inlines its quarter-rounds in
   C, so the vector holds the oracle's, which the kernel is held to. *)
let test_chacha_quarter_round () =
  let a, b, c, d =
    Crypto_oracle.Chacha20.quarter_round (0x11111111, 0x01020304, 0x9b8d6f43, 0x01234567)
  in
  check Alcotest.int "a" 0xea2a92f4 a;
  check Alcotest.int "b" 0xcb1cf8ce b;
  check Alcotest.int "c" 0x4581472e c;
  check Alcotest.int "d" 0x5881c4bb d

let test_chacha_block_vector () =
  (* RFC 8439 §2.3.2 *)
  let key = String.init 32 Char.chr in
  let nonce = Hexdump.to_string "000000090000004a00000000" in
  let blk = Chacha20.block ~key ~counter:1 ~nonce in
  check Alcotest.string "first 16 keystream bytes" "10f1e7e4d13b5915500fdd1fa32071c4"
    (Hexdump.of_string (String.sub blk 0 16))

let test_chacha_bad_sizes () =
  Alcotest.check_raises "short key" (Invalid_argument "Chacha20: key must be 32 bytes")
    (fun () -> ignore (Chacha20.block ~key:"short" ~counter:0 ~nonce:(String.make 12 'n')));
  Alcotest.check_raises "short nonce" (Invalid_argument "Chacha20: nonce must be 12 bytes")
    (fun () -> ignore (Chacha20.block ~key:(String.make 32 'k') ~counter:0 ~nonce:"n"))

let prop_chacha_involution =
  qtest "encrypt . encrypt = id" string_gen (fun s ->
      let key = String.make 32 'k' and nonce = String.make 12 'n' in
      Chacha20.encrypt ~key ~nonce (Chacha20.encrypt ~key ~nonce s) = s)

let prop_chacha_key_sensitivity =
  qtest "different keys, different ciphertext" QCheck2.Gen.(string_size ~gen:char (1 -- 100))
    (fun s ->
      let nonce = String.make 12 'n' in
      Chacha20.encrypt ~key:(String.make 32 'a') ~nonce s
      <> Chacha20.encrypt ~key:(String.make 32 'b') ~nonce s)

let test_siphash_vectors () =
  (* reference vectors from the SipHash paper's appendix *)
  let key = String.init 16 Char.chr in
  check Alcotest.bool "empty" true (Siphash.hash ~key "" = 0x726fdb47dd0e0e31L);
  check Alcotest.bool "one byte" true (Siphash.hash ~key "\x00" = 0x74f839c593dc67fdL);
  check Alcotest.int "tag is 8 bytes" 8 (String.length (Siphash.tag ~key ""))

let prop_siphash_avalanche =
  qtest "single-bit changes flip the hash" QCheck2.Gen.(string_size ~gen:char (1 -- 64))
    (fun s ->
      let key = String.init 16 Char.chr in
      let flipped = Bytes.of_string s in
      Bytes.set flipped 0 (Char.chr (Char.code s.[0] lxor 1));
      Siphash.hash ~key s <> Siphash.hash ~key (Bytes.to_string flipped))

(* --- Chacha20 / Siphash kernels = the reference oracles --- *)

module O = Crypto_oracle

(* Lengths cluster on the block edges (63/64/65 bytes for ChaCha, 7/8/9
   for SipHash words) as well as spreading up to 3000. *)
let crypto_len_gen =
  QCheck2.Gen.(
    oneof
      [ int_range 0 3000;
        map2 (fun k d -> (64 * k) + d) (int_range 0 4) (int_range (-1) 1);
        map2 (fun k d -> (8 * k) + d) (int_range 0 4) (int_range (-1) 1) ]
    |> map (max 0))

let bytes_gen n = QCheck2.Gen.(string_size ~gen:char (return n))

let cipher_case_gen =
  QCheck2.Gen.(
    let* key = bytes_gen 32 and* nonce = bytes_gen 12 in
    let* counter = oneof [ int_range 0 8; int_range 0xFFFF_FFF0 0xFFFF_FFFF ] in
    let* len = crypto_len_gen in
    let* msg = bytes_gen len and* pre = int_range 0 9 and* post = int_range 0 9 in
    return (key, nonce, counter, msg, pre, post))

let print_cipher_case (_, _, counter, msg, pre, post) =
  Printf.sprintf "counter=%d len=%d pre=%d post=%d" counter (String.length msg) pre post

let prop_chacha_block_oracle =
  qtest ~count:200 "chacha block = oracle"
    QCheck2.Gen.(triple (bytes_gen 32) (bytes_gen 12) (int_range 0 0xFFFF_FFFF))
    (fun (key, nonce, counter) ->
      Chacha20.block ~key ~counter ~nonce = O.Chacha20.block ~key ~counter ~nonce)

let prop_chacha_encrypt_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"chacha encrypt = oracle" ~print:print_cipher_case
       cipher_case_gen (fun (key, nonce, counter, msg, _, _) ->
         Chacha20.encrypt ~key ~counter ~nonce msg
         = O.Chacha20.encrypt ~key ~counter ~nonce msg))

(* In place at a non-zero offset, and out of place through the word-nonce
   kernel: the region becomes the oracle's ciphertext and the bytes
   around it are untouched. *)
let prop_chacha_in_place_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"chacha xor_into/xor_stream = oracle"
       ~print:print_cipher_case cipher_case_gen
       (fun (key, nonce, counter, msg, pre, post) ->
         let len = String.length msg in
         let expect =
           String.make pre 'a' ^ O.Chacha20.encrypt ~key ~counter ~nonce msg
           ^ String.make post 'z'
         in
         let b = Bytes.of_string (String.make pre 'a' ^ msg ^ String.make post 'z') in
         Chacha20.xor_into ~key ~counter ~nonce b ~pos:pre ~len;
         let word i = Int32.to_int (String.get_int32_le nonce (4 * i)) land 0xFFFF_FFFF in
         let out = Bytes.of_string (String.make (pre + len + post) 'a') in
         Bytes.fill out (pre + len) post 'z';
         Chacha20.xor_stream ~key ~counter ~n0:(word 0) ~n1:(word 1) ~n2:(word 2)
           (String.make post '.' ^ msg) post out pre len;
         Bytes.to_string b = expect && Bytes.to_string out = expect))

let siphash_case_gen =
  QCheck2.Gen.(
    let* key = bytes_gen 16 and* len = crypto_len_gen in
    let* msg = bytes_gen len and* pre = int_range 0 9 and* post = int_range 0 9 in
    let* prefix_len = int_range 0 7 in
    let* prefix = int_range 0 ((1 lsl (8 * prefix_len)) - 1) in
    return (key, msg, pre, post, prefix, prefix_len))

let prop_siphash_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"siphash hash/hash_sub/prefixed/tag = oracle"
       ~print:(fun (_, msg, pre, post, _, prefix_len) ->
         Printf.sprintf "len=%d pre=%d post=%d prefix_len=%d" (String.length msg) pre post
           prefix_len)
       siphash_case_gen
       (fun (key, msg, pre, post, prefix, prefix_len) ->
         let len = String.length msg in
         let framed = String.make pre '<' ^ msg ^ String.make post '>' in
         let prefix_bytes =
           String.init prefix_len (fun i -> Char.chr ((prefix lsr (8 * i)) land 0xFF))
         in
         let tag_b = Bytes.make (8 + post) '#' in
         Siphash.tag_into ~key framed ~pos:pre ~len tag_b post;
         Siphash.hash ~key msg = O.Siphash.hash ~key msg
         && Siphash.hash_sub ~key framed ~pos:pre ~len = O.Siphash.hash ~key msg
         && Siphash.hash_prefixed ~key ~prefix ~prefix_len framed ~pos:pre ~len
            = O.Siphash.hash ~key (prefix_bytes ^ msg)
         && Siphash.tag ~key msg = O.Siphash.tag ~key msg
         && Bytes.sub_string tag_b post 8 = O.Siphash.tag ~key msg
         && Bytes.sub_string tag_b 0 post = String.make post '#'))

(* The C boundary. Every argument is checked in OCaml before the kernel
   runs, so a hostile call either raises [Invalid_argument], exactly when
   the range check below rejects it, before touching a byte, or writes
   its destination range and nothing else. Offsets and lengths are
   negative, one past the end, [max_int] or [min_int] a quarter of the
   time; keys, nonces and prefix lengths are wrong a fifth of the time.
   The counter and the nonce words take values past 32 bits, which the
   kernel reduces mod 2^32 as the oracle's [land] does. *)

(* [pos, pos+len) lies in a buffer of [size] bytes, decided without the
   sum [pos + len], which overflows at [max_int]. *)
let fits ~pos ~len size = pos >= 0 && len >= 0 && pos <= size && len <= size - pos

type boundary_case = {
  key : string;  (* ChaCha20's; SipHash's is [skey] *)
  skey : string;
  nonce : string;
  counter : int;
  hi : int;  (* added to each nonce word above bit 32 *)
  src : string;
  spos : int;
  dst_len : int;
  dpos : int;
  len : int;
  prefix : int;
  prefix_len : int;
  tag_pos : int;  (* where [Siphash.verify_prefixed] reads the tag in [src] *)
}

let boundary_case_gen =
  QCheck2.Gen.(
    let length good bad = frequency [ (4, return good); (1, oneofl bad) ] in
    let offset n = frequency [ (3, int_range 0 n); (1, oneofl [ -1; n + 1; max_int; min_int ]) ] in
    let* key = length 32 [ 0; 16; 31; 33 ] >>= bytes_gen
    and* skey = length 16 [ 0; 8; 15; 17 ] >>= bytes_gen
    and* nonce = length 12 [ 0; 11; 13 ] >>= bytes_gen
    and* counter = oneof [ int_range 0 8; oneofl [ -1; 0xFFFF_FFFF; max_int; min_int ] ]
    and* hi = oneofl [ 0; 1; -1; max_int lsr 32 ]
    and* src = int_range 0 150 >>= bytes_gen
    and* dst_len = int_range 0 150
    and* prefix = int
    and* prefix_len = frequency [ (4, int_range 0 7); (1, oneofl [ -1; 8; max_int; min_int ]) ] in
    let* spos = offset (String.length src) and* dpos = offset dst_len in
    let room =
      if spos < 0 || dpos < 0 then 0
      else max 0 (min (String.length src - spos) (dst_len - dpos))
    in
    let* len =
      frequency [ (3, int_range 0 room); (1, oneofl [ -1; room + 1; max_int; min_int ]) ]
    and* tag_pos =
      let n = String.length src in
      frequency
        [ (3, if n < 8 then return 0 else int_range 0 (n - 8)); (1, oneofl [ -1; n - 7; max_int ]) ]
    in
    return
      { key; skey; nonce; counter; hi; src; spos; dst_len; dpos; len; prefix; prefix_len; tag_pos })

let print_boundary_case c =
  Printf.sprintf
    "key=%d skey=%d nonce=%d counter=%d hi=%d src=%d spos=%d dst=%d dpos=%d len=%d prefix_len=%d \
     tag_pos=%d"
    (String.length c.key) (String.length c.skey) (String.length c.nonce) c.counter c.hi
    (String.length c.src) c.spos c.dst_len c.dpos c.len c.prefix_len c.tag_pos

let canary = '\xA5'

(* A call on a canary-filled destination of [dst_len] bytes raises
   [Invalid_argument] iff [bad], leaving every byte in place; otherwise
   it writes [expect ()] at [at] and no byte outside it. *)
let writes_only ~dst_len ~bad ~at ~expect call =
  let b = Bytes.make dst_len canary in
  match call b with
  | exception Invalid_argument _ -> bad && Bytes.for_all (Char.equal canary) b
  | () ->
      let e = expect () in
      let n = String.length e in
      (not bad)
      && Bytes.sub_string b at n = e
      && Bytes.for_all (Char.equal canary) (Bytes.sub b 0 at)
      && Bytes.for_all (Char.equal canary) (Bytes.sub b (at + n) (dst_len - at - n))

(* A call that writes nothing raises [Invalid_argument] iff [bad], and
   otherwise returns [expect ()]. *)
let returns ~bad ~expect call =
  match call () with
  | exception Invalid_argument _ -> bad
  | v -> (not bad) && v = expect ()

let prop_kernel_boundary =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:2000 ~name:"hostile arguments raise or stay in range"
       ~print:print_boundary_case boundary_case_gen (fun c ->
         let src_len = String.length c.src in
         let bad_key = String.length c.key <> 32 and bad_nonce = String.length c.nonce <> 12 in
         let bad_skey = String.length c.skey <> 16 in
         let bad_src = not (fits ~pos:c.spos ~len:c.len src_len) in
         let bad_dst = not (fits ~pos:c.dpos ~len:c.len c.dst_len) in
         let bad_prefix = c.prefix_len < 0 || c.prefix_len > 7 in
         let region () = String.sub c.src c.spos c.len in
         (* [xor_stream] takes its nonce as words, so it runs on a valid one. *)
         let nonce12 = if bad_nonce then String.make 12 'n' else c.nonce in
         let word i =
           (Int32.to_int (String.get_int32_le nonce12 (4 * i)) land 0xFFFF_FFFF) + (c.hi lsl 32)
         in
         let prefix_bytes () =
           String.init c.prefix_len (fun i -> Char.chr ((c.prefix lsr (8 * i)) land 0xFF))
         in
         let cipher s = O.Chacha20.encrypt ~key:c.key ~counter:c.counter ~nonce:c.nonce s in
         writes_only ~dst_len:c.dst_len ~bad:(bad_key || bad_src || bad_dst) ~at:c.dpos
           ~expect:(fun () ->
             O.Chacha20.encrypt ~key:c.key ~counter:c.counter ~nonce:nonce12 (region ()))
           (fun b ->
             Chacha20.xor_stream ~key:c.key ~counter:c.counter ~n0:(word 0) ~n1:(word 1)
               ~n2:(word 2) c.src c.spos b c.dpos c.len)
         && writes_only ~dst_len:c.dst_len ~bad:(bad_key || bad_nonce || bad_dst) ~at:c.dpos
              ~expect:(fun () -> cipher (String.make c.len canary))
              (fun b ->
                Chacha20.xor_into ~key:c.key ~counter:c.counter ~nonce:c.nonce b ~pos:c.dpos
                  ~len:c.len)
         && returns ~bad:(bad_key || bad_nonce) ~expect:(fun () -> cipher c.src) (fun () ->
                Chacha20.encrypt ~key:c.key ~counter:c.counter ~nonce:c.nonce c.src)
         && returns ~bad:(bad_skey || bad_src)
              ~expect:(fun () -> O.Siphash.hash ~key:c.skey (region ()))
              (fun () -> Siphash.hash_sub ~key:c.skey c.src ~pos:c.spos ~len:c.len)
         && returns ~bad:(bad_skey || bad_src || bad_prefix)
              ~expect:(fun () -> O.Siphash.hash ~key:c.skey (prefix_bytes () ^ region ()))
              (fun () ->
                Siphash.hash_prefixed ~key:c.skey ~prefix:c.prefix ~prefix_len:c.prefix_len
                  c.src ~pos:c.spos ~len:c.len)
         && returns
              ~bad:
                (bad_skey || bad_src || bad_prefix
                || not (fits ~pos:c.tag_pos ~len:8 src_len))
              ~expect:(fun () ->
                O.Siphash.tag ~key:c.skey (prefix_bytes () ^ region ())
                = String.sub c.src c.tag_pos 8)
              (fun () ->
                Siphash.verify_prefixed ~key:c.skey ~prefix:c.prefix ~prefix_len:c.prefix_len
                  c.src ~pos:c.spos ~len:c.len ~tag_pos:c.tag_pos)
         && writes_only ~dst_len:c.dst_len
              ~bad:(bad_skey || bad_src || not (fits ~pos:c.dpos ~len:8 c.dst_len))
              ~at:c.dpos
              ~expect:(fun () -> O.Siphash.tag ~key:c.skey (region ()))
              (fun b -> Siphash.tag_into ~key:c.skey c.src ~pos:c.spos ~len:c.len b c.dpos)
         && writes_only ~dst_len:c.dst_len
              ~bad:
                (bad_skey || bad_src || bad_prefix
                || not (fits ~pos:c.dpos ~len:8 c.dst_len))
              ~at:c.dpos
              ~expect:(fun () -> O.Siphash.tag ~key:c.skey (prefix_bytes () ^ region ()))
              (fun b ->
                Siphash.tag_prefixed_into ~key:c.skey ~prefix:c.prefix ~prefix_len:c.prefix_len
                  c.src ~pos:c.spos ~len:c.len b c.dpos)))

(* The kernels' whole point: a call over 1 KiB allocates nothing, not
   thousands of words. Measured per call (dev profile): ChaCha20's
   [xor_into] 0.0 words in C and 0.0 as word-level OCaml; SipHash's
   [tag_into] 0.0 in C, whose [int64] result stays unboxed, and 3.0 as
   word-level OCaml, which boxed it; [verify_prefixed] 0.0, where
   [hash_prefixed] and [Int64.equal] called from another module cost
   3.0 for the boxed hash; [tag_prefixed_into] 0.0, where
   [hash_prefixed] and [Bytes.set_int64_le] from another module cost
   3.0 the same way. *)
let test_crypto_kernels_allocation_free () =
  let key = String.make 32 'k' and nonce = String.make 12 'n' in
  let sip_key = String.sub key 0 16 in
  let b = Bytes.make 1024 'p' in
  let calls = 1000 in
  let words f =
    f ();
    let before = Gc.minor_words () in
    for _ = 1 to calls do
      f ()
    done;
    (Gc.minor_words () -. before) /. float_of_int calls
  in
  let chacha = words (fun () -> Chacha20.xor_into ~key ~nonce b ~pos:0 ~len:1024) in
  let sip =
    words (fun () ->
        Siphash.tag_into ~key:sip_key (Bytes.unsafe_to_string b) ~pos:0 ~len:1016 b 1016)
  in
  (* [tag_into] left the tag of bytes [0, 1016) at 1016. *)
  let verified = ref true in
  let verify =
    words (fun () ->
        verified :=
          !verified
          && Siphash.verify_prefixed ~key:sip_key ~prefix:0 ~prefix_len:0
               (Bytes.unsafe_to_string b) ~pos:0 ~len:1016 ~tag_pos:1016)
  in
  check Alcotest.bool "verify_prefixed accepts the tag" true !verified;
  let prefixed =
    words (fun () ->
        Siphash.tag_prefixed_into ~key:sip_key ~prefix:0xBEEF ~prefix_len:2
          (Bytes.unsafe_to_string b) ~pos:0 ~len:1016 b 1016)
  in
  check Alcotest.bool "verify_prefixed accepts the prefixed tag" true
    (Siphash.verify_prefixed ~key:sip_key ~prefix:0xBEEF ~prefix_len:2
       (Bytes.unsafe_to_string b) ~pos:0 ~len:1016 ~tag_pos:1016);
  (* [Gc.minor_words]'s own boxed result adds 0.002 per call here. *)
  check Alcotest.bool (Printf.sprintf "chacha xor_into 1 KiB: %.3f words/call" chacha) true
    (chacha < 0.01);
  check Alcotest.bool (Printf.sprintf "siphash tag_into 1 KiB: %.3f words/call" sip) true
    (sip < 0.01);
  check Alcotest.bool
    (Printf.sprintf "siphash verify_prefixed 1 KiB: %.3f words/call" verify)
    true (verify < 0.01);
  check Alcotest.bool
    (Printf.sprintf "siphash tag_prefixed_into 1 KiB: %.3f words/call" prefixed)
    true (prefixed < 0.01)

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.bool "same stream" true (Rng.int64 a = Rng.int64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create 42 in
  let c = Rng.split a in
  check Alcotest.bool "split differs" true (Rng.int64 a <> Rng.int64 c)

(* The splitmix64 stream as first written: a boxed [int64] state
   replaced on every draw. The unboxed generator must reproduce it draw
   for draw. *)
module Boxed_rng = struct
  type t = { mutable state : int64 }

  let golden = 0x9E3779B97F4A7C15L

  let mix z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let int64 t =
    t.state <- Int64.add t.state golden;
    mix t.state

  let bits t n = if n = 0 then 0 else Int64.to_int (Int64.shift_right_logical (int64 t) (64 - n))

  let rec int t bound =
    let r = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
    let v = r mod bound in
    if r - v + (bound - 1) < 0 then int t bound else v

  let float t = Float.of_int (Int64.to_int (Int64.shift_right_logical (int64 t) 11)) *. 0x1p-53
  let bool t = Int64.logand (int64 t) 1L = 1L
end

(* Bounds for [int] draws: small and large ones, and every power of two
   from 1 to 2^61, which [Rng.int] masks instead of dividing. *)
let rng_bound_gen =
  QCheck2.Gen.(frequency [ (2, 1 -- 1_000_000); (1, map (fun i -> 1 lsl i) (0 -- 61)) ])

let prop_rng_stream =
  qtest "rng stream = boxed splitmix64"
    QCheck2.Gen.(
      pair int
        (map2 ( @ )
           (list_size (1 -- 50) (pair (0 -- 5) rng_bound_gen))
           (return (List.init 62 (fun i -> (2, 1 lsl i))))))
    (fun (seed, draws) ->
      let r = Rng.create seed and o = { Boxed_rng.state = Int64.of_int seed } in
      let same (kind, n) =
        match kind with
        | 0 -> Rng.int64 r = Boxed_rng.int64 o
        | 1 -> Rng.bits r (n mod 63) = Boxed_rng.bits o (n mod 63)
        | 2 -> Rng.int r n = Boxed_rng.int o n
        | 3 -> Rng.float r = Boxed_rng.float o
        | 4 -> Rng.bool r = Boxed_rng.bool o
        | _ ->
            (* A split stream starts from the parent's next output. *)
            let c = Rng.split r in
            let oc = { Boxed_rng.state = Boxed_rng.int64 o } in
            Rng.int64 c = Boxed_rng.int64 oc && Rng.copy r <> c
      in
      List.for_all same draws && Rng.int64 (Rng.copy r) = Boxed_rng.int64 o)

let prop_rng_bytes =
  qtest "rng bytes = a byte per int draw"
    QCheck2.Gen.(pair int (0 -- 5_000))
    (fun (seed, n) ->
      let r = Rng.create seed and o = Rng.create seed in
      let s = Rng.bytes r n in
      s = String.init n (fun _ -> Char.chr (Rng.int o 256)) && Rng.int64 r = Rng.int64 o)

(* A channel send makes several draws; none of them may allocate. *)
let test_rng_draws_allocation_free () =
  let r = Rng.create 9 in
  let acc = ref 0 in
  let draws = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to draws do
    if Rng.coin r 0.3 then incr acc;
    if Rng.bool r then incr acc;
    acc := !acc + Rng.int r 1000 + Rng.bits r 12
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int (4 * draws) in
  check Alcotest.bool (Printf.sprintf "%.3f words/draw (sum %d)" words !acc) true
    (words < 0.01)

let test_rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    if v < 0 || v >= 10 then Alcotest.failf "int out of bounds: %d" v;
    let f = Rng.float r in
    if f < 0. || f >= 1. then Alcotest.failf "float out of bounds: %f" f
  done

let test_rng_coin_bias () =
  let r = Rng.create 3 in
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Rng.coin r 0.3 then incr hits
  done;
  let p = Float.of_int !hits /. 10_000. in
  if p < 0.27 || p > 0.33 then Alcotest.failf "coin(0.3) measured %.3f" p

let test_rng_shuffle_permutation () =
  let r = Rng.create 5 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check Alcotest.bool "permutation" true (sorted = Array.init 50 Fun.id)

(* --- Hexdump --- *)

let test_hex_roundtrip () =
  check Alcotest.string "encode" "01ab" (Hexdump.of_string "\x01\xab");
  check Alcotest.string "decode" "\x01\xab" (Hexdump.to_string "01ab");
  check Alcotest.string "case" "\x01\xab" (Hexdump.to_string "01AB")

let prop_hex_roundtrip =
  qtest "hex roundtrip" string_gen (fun s -> Hexdump.to_string (Hexdump.of_string s) = s)

(* --- Fifo --- *)

type fifo_op = Push of int | Pop | Map | Bump of int | Find of int | Split of int

(* Every operation against a plain list in queue order: the same
   results, and the same elements left in the same order. [Bump k] is a
   sharing map that changes only the elements equal to [k], so it
   changes none when [k] is absent, and then the queue itself comes
   back. [Find] misses whenever [k] is at least every element, and both
   halves of the queue are searched in order, not reversed. *)
let prop_fifo_model =
  let op_gen =
    QCheck2.Gen.(
      frequency
        [ (4, map (fun x -> Push x) (0 -- 50)); (2, return Pop); (1, return Map);
          (2, map (fun k -> Bump k) (0 -- 60)); (1, map (fun k -> Find k) (0 -- 60));
          (1, map (fun k -> Split k) (0 -- 60)) ])
  in
  qtest "fifo = list model" QCheck2.Gen.(list_size (0 -- 60) op_gen) (fun ops ->
      let rec drain q = match Fifo.pop q with None -> [] | Some (x, q) -> x :: drain q in
      let rec prefix p = function
        | x :: rest when p x -> let taken, rest = prefix p rest in (x :: taken, rest)
        | l -> ([], l)
      in
      let step (q, model, ok) op =
        let q, model, same =
          match op with
          | Push x -> (Fifo.push q x, model @ [ x ], true)
          | Pop -> (
              match (Fifo.pop q, model) with
              | None, [] -> (q, model, true)
              | Some (x, q), y :: model -> (q, model, x = y)
              | _ -> (q, model, false))
          | Map -> (Fifo.map_shared succ q, List.map succ model, true)
          | Bump k ->
              let bump x = if x = k then x + 1 else x in
              let q' = Fifo.map_shared bump q in
              (q', List.map bump model, List.mem k model || q' == q)
          | Find k -> (q, model, Fifo.find_opt (fun x -> x > k) q = List.find_opt (fun x -> x > k) model)
          | Split k ->
              let taken, q = Fifo.split_while (fun x -> x < k) q in
              let taken', model = prefix (fun x -> x < k) model in
              (q, model, taken = taken')
        in
        (q, model, ok && same && drain q = model && Fifo.is_empty q = (model = []))
      in
      let _, _, ok = List.fold_left step (Fifo.empty, [], true) ops in
      ok)

(* What RD's scoreboard leans on: a search that finds nothing and a
   sharing map that changes nothing allocate nothing, over a queue with
   elements in both halves, and a map that changes one element next to
   the oldest allocates the same over 8 elements as over 64. *)
let test_fifo_allocation () =
  let queue n =
    (* [n] pushed and the oldest popped, which moves the rest to the
       front half; then [n] more on the back half. *)
    let rec fill q i hi = if i = hi then q else fill (Fifo.push q i) (i + 1) hi in
    match Fifo.pop (fill Fifo.empty 0 n) with
    | Some (_, q) -> fill q n (2 * n)
    | None -> assert false
  in
  let words f =
    let calls = 1000 in
    ignore (f ());
    let before = Gc.minor_words () in
    for _ = 1 to calls do
      ignore (Sys.opaque_identity (f ()))
    done;
    (Gc.minor_words () -. before) /. float_of_int calls
  in
  let negative x = if x < 0 then x + 1 else x and bump2 x = if x = 2 then 3 else x in
  let q = queue 32 in
  let miss = words (fun () -> Fifo.find_opt (fun x -> x < 0) q) in
  let unchanged = words (fun () -> Fifo.map_shared negative q) in
  check Alcotest.bool "nothing changed: the queue itself" true (Fifo.map_shared negative q == q);
  check Alcotest.bool (Printf.sprintf "find_opt miss: %.3f words/call" miss) true (miss < 0.01);
  check Alcotest.bool (Printf.sprintf "map_shared, no change: %.3f words/call" unchanged)
    true (unchanged < 0.01);
  let one_change n =
    let q = queue n in
    words (fun () -> Fifo.map_shared bump2 q)
  in
  check (Alcotest.float 0.01) "one change next to the oldest: 8 = 64 elements" (one_change 8)
    (one_change 64)

(* --- Blockbuf --- *)

type store_op = Add of int | Beyond | Contents | Clear | Check

(* A store's first block is 256 bytes and each new block brings its
   capacity to a power-of-two multiple of 256, so every block boundary
   is one of these positions; one byte either side of each, plus the
   first and the last byte. *)
let boundary_positions len =
  let rec go b acc = if b > len then acc else go (2 * b) ((b - 1) :: b :: (b + 1) :: acc) in
  List.filter (fun p -> p >= 0 && p < len) (0 :: (len - 1) :: go 256 [])

(* Random deliveries (empty, inside a block, across one or several block
   boundaries, and past all capacity so far) interleaved with contents,
   clear and the exactness check, against a [Buffer]: the same length
   and contents after every step, the ingest copy charged exactly, and
   [equal_string] true on the contents and false after any length change
   or any single flipped byte at a block boundary. *)
let prop_blockbuf_model =
  let op_gen =
    QCheck2.Gen.(
      frequency
        [ (1, return (Add 0)); (4, map (fun n -> Add n) (1 -- 64));
          (3, map (fun n -> Add n) (65 -- 700)); (2, map (fun n -> Add n) (701 -- 5_000));
          (1, return Beyond); (2, return Contents); (1, return Clear); (2, return Check) ])
  in
  qtest ~count:200 "blockbuf = Buffer model"
    QCheck2.Gen.(pair int (list_size (0 -- 40) op_gen))
    (fun (seed, ops) ->
      let rng = Rng.create seed in
      let t = Blockbuf.create () and model = Buffer.create 16 in
      let exact () =
        let s = Buffer.contents model in
        let n = String.length s in
        let flipped p =
          let b = Bytes.of_string s in
          Bytes.set b p (Char.chr (Char.code s.[p] lxor (1 + Rng.int rng 255)));
          Bytes.unsafe_to_string b
        in
        Blockbuf.length t = n
        && Blockbuf.equal_string t s
        && (not (Blockbuf.equal_string t (s ^ "x")))
        && (n = 0 || not (Blockbuf.equal_string t (String.sub s 0 (n - 1))))
        && List.for_all
             (fun p -> not (Blockbuf.equal_string t (flipped p)))
             (boundary_positions n)
      in
      let step op =
        match op with
        | Add _ | Beyond ->
            let n =
              match op with
              | Add n -> n
              | _ -> min 200_000 ((2 * Buffer.length model) + 257)
            in
            let off = Rng.int rng 21 in
            let base = Rng.bytes rng (n + 20) in
            let before = Slice.copied_bytes () in
            Blockbuf.add t (Slice.make base ~off ~len:n);
            Buffer.add_substring model base off n;
            Slice.copied_bytes () - before = n && Blockbuf.length t = Buffer.length model
        | Contents -> Blockbuf.contents t = Buffer.contents model
        | Clear ->
            Blockbuf.clear t;
            Buffer.clear model;
            Blockbuf.length t = 0 && Blockbuf.contents t = ""
        | Check -> exact ()
      in
      List.for_all step ops && exact ())

(* A 64 KiB stream in 1 000-byte deliveries allocates its bytes once
   (blocks of 256, 768, 1 024, ... 32 768 bytes; a [Buffer] allocates
   about twice that and copies about as much again), and neither the
   exactness check nor a refill after [clear] allocates anything. *)
let test_blockbuf_allocation () =
  let data = Rng.bytes (Rng.create 4) 65_536 in
  let deliveries =
    Array.init 66 (fun i -> Slice.make data ~off:(1_000 * i) ~len:(min 1_000 (65_536 - (1_000 * i))))
  in
  let t = Blockbuf.create () in
  let fill () = Array.iter (Blockbuf.add t) deliveries in
  (* [Gc.allocated_bytes] counts minor-heap words only once a minor
     collection settles them, so a collection during the fill would add
     everything allocated since the one before. Both readings are taken
     on an empty minor heap, whatever the earlier tests left behind, so
     the fill's small blocks are counted and nothing else is. *)
  Gc.full_major ();
  let a0 = Gc.allocated_bytes () in
  fill ();
  Gc.minor ();
  let grown = Gc.allocated_bytes () -. a0 in
  check Alcotest.bool (Printf.sprintf "%.0f bytes allocated for 65 536" grown) true
    (grown < 65_536. +. 1_024.);
  check Alcotest.bool "exact" true (Blockbuf.equal_string t data);
  let w0 = Gc.minor_words () in
  for _ = 1 to 100 do
    ignore (Blockbuf.equal_string t data)
  done;
  Blockbuf.clear t;
  fill ();
  let words = Gc.minor_words () -. w0 in
  check Alcotest.bool (Printf.sprintf "%.0f words for 100 checks and a refill" words) true
    (words <= 8.);
  check Alcotest.bool "refilled" true (Blockbuf.contents t = data)

let () =
  Alcotest.run "bitkit"
    [
      ( "bitseq",
        [
          Alcotest.test_case "literals" `Quick test_bitseq_literals;
          Alcotest.test_case "bytes" `Quick test_bitseq_bytes;
          Alcotest.test_case "ops" `Quick test_bitseq_ops;
          Alcotest.test_case "find_sub" `Quick test_bitseq_find_sub;
          Alcotest.test_case "flip" `Quick test_bitseq_flip;
          prop_bitseq_roundtrip;
          prop_bitseq_equal_structural;
          prop_bitseq_append_length;
          prop_bitseq_of_bytes_bits;
          prop_oracle_sub;
          prop_oracle_append;
          prop_oracle_concat;
          prop_oracle_flip;
          prop_oracle_byte_at;
          prop_oracle_find_sub;
        ] );
      ( "bitio",
        [
          Alcotest.test_case "fields" `Quick test_bitio_fields;
          Alcotest.test_case "truncated" `Quick test_bitio_truncated;
          Alcotest.test_case "alignment" `Quick test_bitio_alignment;
          prop_bitio_u32_roundtrip;
        ] );
      ( "fifo",
        [ prop_fifo_model;
          Alcotest.test_case "misses and unchanged maps allocate nothing" `Quick
            test_fifo_allocation ] );
      ( "blockbuf",
        [
          prop_blockbuf_model;
          Alcotest.test_case "allocates each byte once, checks in place" `Quick
            test_blockbuf_allocation;
        ] );
      ( "crc",
        [
          Alcotest.test_case "catalogue vectors" `Quick test_crc_catalogue;
          Alcotest.test_case "detects single flips" `Quick test_crc_detects_flip;
          Alcotest.test_case "digest_sub" `Quick test_crc_digest_sub;
          prop_crc_incremental_disjoint;
          prop_crc_oracle;
          Alcotest.test_case "update allocates only its result" `Quick
            test_crc_update_allocation;
        ] );
      ( "checksum",
        [
          Alcotest.test_case "internet" `Quick test_internet_checksum;
          Alcotest.test_case "parity" `Quick test_parity;
          Alcotest.test_case "fletcher/adler" `Quick test_fletcher_adler;
          prop_internet_valid;
        ] );
      ( "crypto",
        [
          Alcotest.test_case "chacha quarter round (RFC)" `Quick test_chacha_quarter_round;
          Alcotest.test_case "chacha block (RFC)" `Quick test_chacha_block_vector;
          Alcotest.test_case "chacha sizes" `Quick test_chacha_bad_sizes;
          prop_chacha_involution;
          prop_chacha_key_sensitivity;
          Alcotest.test_case "siphash vectors" `Quick test_siphash_vectors;
          prop_siphash_avalanche;
          prop_chacha_block_oracle;
          prop_chacha_encrypt_oracle;
          prop_chacha_in_place_oracle;
          prop_siphash_oracle;
          prop_kernel_boundary;
          Alcotest.test_case "kernels allocate O(1) words per call" `Quick
            test_crypto_kernels_allocation_free;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "coin bias" `Quick test_rng_coin_bias;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutation;
          prop_rng_stream;
          prop_rng_bytes;
          Alcotest.test_case "draws allocate nothing" `Quick test_rng_draws_allocation_free;
        ] );
      ( "hexdump",
        [
          Alcotest.test_case "roundtrip" `Quick test_hex_roundtrip;
          prop_hex_roundtrip;
        ] );
    ]
