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

(* --- Bitio --- *)

let test_bitio_fields () =
  let w = Bitio.Writer.create () in
  Bitio.Writer.bits w 0b101 3;
  Bitio.Writer.bits w 0b01 2;
  Bitio.Writer.bits w 0b110 3;
  Bitio.Writer.uint16 w 0xBEEF;
  let s = Bitio.Writer.contents w in
  check Alcotest.int "packed length" 3 (String.length s);
  let r = Bitio.Reader.of_string s in
  check Alcotest.int "f1" 0b101 (Bitio.Reader.bits r 3);
  check Alcotest.int "f2" 0b01 (Bitio.Reader.bits r 2);
  check Alcotest.int "f3" 0b110 (Bitio.Reader.bits r 3);
  check Alcotest.int "u16" 0xBEEF (Bitio.Reader.uint16 r)

let test_bitio_truncated () =
  let r = Bitio.Reader.of_string "\x01" in
  ignore (Bitio.Reader.uint8 r);
  Alcotest.check_raises "truncated" Bitio.Reader.Truncated (fun () ->
      ignore (Bitio.Reader.bit r))

let test_bitio_alignment () =
  let w = Bitio.Writer.create () in
  Bitio.Writer.bit w true;
  Alcotest.check_raises "unaligned bytes"
    (Invalid_argument "Bitio.Writer.bytes: not byte-aligned") (fun () ->
      Bitio.Writer.bytes w "x");
  Bitio.Writer.pad_to_byte w;
  Bitio.Writer.bytes w "x";
  check Alcotest.int "bits" 16 (Bitio.Writer.bit_length w)

let prop_bitio_u32_roundtrip =
  qtest "uint32 roundtrip" QCheck2.Gen.(0 -- 0xFFFF_FFFF) (fun v ->
      let w = Bitio.Writer.create () in
      Bitio.Writer.uint32 w v;
      let r = Bitio.Reader.of_string (Bitio.Writer.contents w) in
      Bitio.Reader.uint32 r = v)

(* --- Bitio word-level fields = the bit-at-a-time oracle --- *)

module BO = Bitio_oracle

type write_op =
  | Bit of bool
  | Bits of int * int (* value, width *)
  | U8 of int
  | U16 of int
  | U32 of int
  | Pad_bytes of string
  | Reserve of int (* the value patched in once every op has run *)

(* Values are drawn wider than their fields, negative ones included:
   both writers must keep exactly the low [width] bits. *)
let write_op_gen =
  QCheck2.Gen.(
    let value = oneof [ int; int_range (-300) 300; int_range 0 0xFFFF_FFFF ] in
    frequency
      [ (2, map (fun b -> Bit b) bool);
        (6, map2 (fun v w -> Bits (v, w)) value (int_range 0 62));
        (1, map (fun v -> U8 v) value);
        (1, map (fun v -> U16 v) value);
        (1, map (fun v -> U32 v) value);
        (1, map (fun s -> Pad_bytes s) (string_size ~gen:char (0 -- 5)));
        (1, map (fun v -> Reserve v) (int_range 0 0xFFFF)) ])

let print_write_op = function
  | Bit b -> Printf.sprintf "bit %b" b
  | Bits (v, w) -> Printf.sprintf "bits %d %d" v w
  | U8 v -> Printf.sprintf "uint8 %d" v
  | U16 v -> Printf.sprintf "uint16 %d" v
  | U32 v -> Printf.sprintf "uint32 %d" v
  | Pad_bytes s -> Printf.sprintf "pad; bytes %S" s
  | Reserve v -> Printf.sprintf "reserve (patch %d)" v

let prop_bitio_writer_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"bitio writer = bit-at-a-time oracle"
       ~print:QCheck2.Print.(list print_write_op)
       QCheck2.Gen.(list_size (0 -- 40) write_op_gen)
       (fun ops ->
         let w = Bitio.Writer.create ~size:1 () and o = BO.Writer.create () in
         let patches =
           List.fold_left
             (fun patches op ->
               match op with
               | Bit b -> Bitio.Writer.bit w b; BO.Writer.bit o b; patches
               | Bits (v, n) -> Bitio.Writer.bits w v n; BO.Writer.bits o v n; patches
               | U8 v -> Bitio.Writer.uint8 w v; BO.Writer.uint8 o v; patches
               | U16 v -> Bitio.Writer.uint16 w v; BO.Writer.uint16 o v; patches
               | U32 v -> Bitio.Writer.uint32 w v; BO.Writer.uint32 o v; patches
               | Pad_bytes s ->
                   Bitio.Writer.pad_to_byte w;
                   BO.Writer.pad_to_byte o;
                   Bitio.Writer.bytes w s;
                   BO.Writer.bytes o s;
                   patches
               | Reserve v ->
                   Bitio.Writer.pad_to_byte w;
                   BO.Writer.pad_to_byte o;
                   (Bitio.Writer.reserve_uint16 w, BO.Writer.reserve_uint16 o, v) :: patches)
             [] ops
         in
         List.iter
           (fun (tw, t_o, v) ->
             Bitio.Writer.patch_uint16 w tw v;
             BO.Writer.patch_uint16 o t_o v)
           patches;
         Bitio.Writer.bit_length w = BO.Writer.bit_length o
         && Bitio.Writer.contents w = BO.Writer.contents o))

type read_op = Read_bit | Read_bits of int | Read_u16 | Read_u32

(* The reads of one reader over a view, in order, up to and including the
   first that raises [Truncated] (recorded as [None]). *)
let run_reads ~truncated ~bit ~bits ops =
  let rec go acc = function
    | [] -> List.rev acc
    | op :: rest -> (
        match
          match op with
          | Read_bit -> Bool.to_int (bit ())
          | Read_bits n -> bits n
          | Read_u16 -> bits 16
          | Read_u32 -> bits 32
        with
        | v -> go (Some v :: acc) rest
        | exception e when truncated e -> List.rev (None :: acc))
  in
  go [] ops

(* Reads of random widths over a view in the middle of a buffer: the
   bytes on either side must never leak into a field, every value must
   match the oracle's, and both must give up on the same field. *)
let prop_bitio_reader_oracle =
  let gen =
    QCheck2.Gen.(
      let* s = string_size ~gen:char (0 -- 40) in
      let n = String.length s in
      let* off = int_range 0 n in
      let* len = int_range 0 (n - off) in
      let* ops =
        list_size (0 -- 30)
          (frequency
             [ (2, return Read_bit);
               (6, map (fun w -> Read_bits w) (int_range 0 62));
               (1, return Read_u16);
               (1, return Read_u32) ])
      in
      return (s, off, len, ops))
  in
  let print (s, off, len, ops) =
    Printf.sprintf "len %d view [%d, %d) %d reads" (String.length s) off (off + len)
      (List.length ops)
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"bitio reader = bit-at-a-time oracle" ~print gen
       (fun (s, off, len, ops) ->
         let sl = Slice.make s ~off ~len in
         let r = Bitio.Reader.of_slice sl and o = BO.Reader.of_slice sl in
         run_reads ops
           ~truncated:(( = ) Bitio.Reader.Truncated)
           ~bit:(fun () -> Bitio.Reader.bit r)
           ~bits:(Bitio.Reader.bits r)
         = run_reads ops
             ~truncated:(( = ) BO.Reader.Truncated)
             ~bit:(fun () -> BO.Reader.bit o)
             ~bits:(BO.Reader.bits o)))

(* A field that runs past the view raises before consuming anything: the
   reader is left where the field began. *)
let test_bitio_truncated_consumes_nothing () =
  let r = Bitio.Reader.of_slice (Slice.make "\xff\xff\xff" ~off:1 ~len:1) in
  check Alcotest.int "three bits" 0b111 (Bitio.Reader.bits r 3);
  Alcotest.check_raises "six bits past a five-bit remainder" Bitio.Reader.Truncated
    (fun () -> ignore (Bitio.Reader.bits r 6));
  check Alcotest.int "nothing consumed" 5 (Bitio.Reader.remaining_bits r);
  check Alcotest.int "the remainder still reads" 0b11111 (Bitio.Reader.bits r 5)

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

let test_chacha_quarter_round () =
  (* RFC 8439 §2.1.1 *)
  let a, b, c, d =
    Chacha20.quarter_round (0x11111111, 0x01020304, 0x9b8d6f43, 0x01234567)
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

(* The kernels' whole point: a call over 1 KiB allocates a small fixed
   number of words (SipHash boxes its int64 result; ChaCha nothing),
   not thousands. *)
let test_crypto_kernels_allocation_free () =
  let key = String.make 32 'k' and nonce = String.make 12 'n' in
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
        Siphash.tag_into ~key:(String.sub key 0 16) (Bytes.unsafe_to_string b) ~pos:0
          ~len:1016 b 1016)
  in
  check Alcotest.bool (Printf.sprintf "chacha xor_into 1 KiB: %.1f words/call" chacha) true
    (chacha <= 8.);
  check Alcotest.bool (Printf.sprintf "siphash tag_into 1 KiB: %.1f words/call" sip) true
    (sip <= 8.)

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
          prop_bitio_writer_oracle;
          prop_bitio_reader_oracle;
          Alcotest.test_case "truncated field consumes nothing" `Quick
            test_bitio_truncated_consumes_nothing;
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
        ] );
      ( "hexdump",
        [
          Alcotest.test_case "roundtrip" `Quick test_hex_roundtrip;
          prop_hex_roundtrip;
        ] );
    ]
