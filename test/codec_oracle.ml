(* Reference oracle for [Transport.Segment]'s DM, CM, RD and OSR header
   codecs: the [Bitkit.Bitio] writers and readers they replaced, kept as
   they were (one writer or reader call per field, masking left to
   [Bitio], a short input caught as [Truncated]) because each reads as
   the Figure 6 field list itself. Property tests hold the library's
   store-based writers and in-place readers to these, byte for byte and
   field for field. *)

open Transport.Segment
module W = Bitkit.Bitio.Writer
module R = Bitkit.Bitio.Reader

let catch_truncated f = match f () with v -> Some v | exception R.Truncated -> None

let encode write t ~payload =
  let w = W.create () in
  write t w;
  W.bytes w payload;
  W.contents w

let decode read s =
  catch_truncated (fun () ->
      let r = R.of_string s in
      let h = read r in
      (h, R.rest r))

(* DM: src_port:16 dst_port:16 *)

let write_dm t w =
  W.uint16 w t.src_port;
  W.uint16 w t.dst_port

let read_dm r =
  let src_port = R.uint16 r in
  let dst_port = R.uint16 r in
  { src_port; dst_port }

(* CM: flags:8 (syn|ack|fin|rst|0000) isn_local:32 isn_remote:32 *)

let write_cm t w =
  let f = t.flags in
  W.bit w f.syn;
  W.bit w f.ack;
  W.bit w f.fin;
  W.bit w f.rst;
  W.bits w 0 4;
  W.uint32 w (t.isn_local land 0xFFFFFFFF);
  W.uint32 w (t.isn_remote land 0xFFFFFFFF)

let read_cm r =
  let syn = R.bit r in
  let ack = R.bit r in
  let fin = R.bit r in
  let rst = R.bit r in
  let _pad = R.bits r 4 in
  let isn_local = R.uint32 r in
  let isn_remote = R.uint32 r in
  { flags = { syn; ack; fin; rst }; isn_local; isn_remote }

(* RD: seq:32 ack:32 len:16 flags:8 (has_data|has_ack|sack_count:2|0000),
   then sack_count * (start:32 end:32) *)

let write_rd t w =
  let sacks =
    if List.length t.sacks > 3 then invalid_arg "encode_rd: >3 sacks" else t.sacks
  in
  W.uint32 w (t.seq land 0xFFFFFFFF);
  W.uint32 w (t.ack land 0xFFFFFFFF);
  W.uint16 w (t.len land 0xFFFF);
  W.bit w t.has_data;
  W.bit w t.has_ack;
  W.bits w (List.length sacks) 2;
  W.bits w 0 4;
  List.iter
    (fun b ->
      W.uint32 w (b.sack_start land 0xFFFFFFFF);
      W.uint32 w (b.sack_end land 0xFFFFFFFF))
    sacks

let read_rd r =
  let seq = R.uint32 r in
  let ack = R.uint32 r in
  let len = R.uint16 r in
  let has_data = R.bit r in
  let has_ack = R.bit r in
  let nsacks = R.bits r 2 in
  let _pad = R.bits r 4 in
  let sacks =
    List.init nsacks (fun _ ->
        let sack_start = R.uint32 r in
        let sack_end = R.uint32 r in
        { sack_start; sack_end })
  in
  { seq; ack; len; has_data; has_ack; sacks }

(* OSR: window:16 flags:8 (ecn_echo|ecn_ce|000000) *)

let write_osr t w =
  W.uint16 w t.window;
  W.bit w t.ecn_echo;
  W.bit w t.ecn_ce;
  W.bits w 0 6

let read_osr r =
  let window = R.uint16 r in
  let ecn_echo = R.bit r in
  let ecn_ce = R.bit r in
  let _pad = R.bits r 6 in
  { window; ecn_echo; ecn_ce }

let encode_dm = encode write_dm
let decode_dm = decode read_dm
let encode_cm = encode write_cm
let decode_cm = decode read_cm
let encode_rd = encode write_rd
let decode_rd = decode read_rd
let encode_osr = encode write_osr
let decode_osr = decode read_osr
