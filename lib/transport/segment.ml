module W = Bitkit.Bitio.Writer
module R = Bitkit.Bitio.Reader
module Slice = Bitkit.Slice
module Wirebuf = Bitkit.Wirebuf

let catch_truncated f = match f () with v -> Some v | exception R.Truncated -> None

(* Each sublayer's codec comes in three forms sharing one header writer:
   [write_x] appends just the header bits (the wirebuf push used by the
   zero-copy transmit path), [encode_x] is the legacy string codec
   (header + copied payload), and [decode_x_slice]/[decode_x] peel the
   header off a slice/string, the slice form returning a zero-copy view
   of the rest. *)

(* DM: src_port:16 dst_port:16 *)

type dm = { src_port : int; dst_port : int }

let dm_header_bytes = 4

let write_dm t w =
  W.uint16 w t.src_port;
  W.uint16 w t.dst_port

let encode_dm t ~payload =
  let w = W.create () in
  write_dm t w;
  W.bytes w payload;
  W.contents w

let read_dm r =
  let src_port = R.uint16 r in
  let dst_port = R.uint16 r in
  { src_port; dst_port }

let decode_dm s =
  catch_truncated (fun () ->
      let r = R.of_string s in
      let h = read_dm r in
      (h, R.rest r))

let decode_dm_slice sl =
  catch_truncated (fun () ->
      let r = R.of_slice sl in
      let h = read_dm r in
      (h, R.rest_slice r))

(* The demux reads the two ports straight from the view: no reader, no
   handler. *)
let peek_ports (sl : Slice.t) =
  if sl.len < dm_header_bytes then None
  else
    Some
      (String.get_uint16_be sl.base sl.off, String.get_uint16_be sl.base (sl.off + 2))

(* CM: flags:8 (syn|ack|fin|rst|0000) isn_local:32 isn_remote:32 *)

type cm_flags = { syn : bool; ack : bool; fin : bool; rst : bool }

let no_cm_flags = { syn = false; ack = false; fin = false; rst = false }

type cm = { flags : cm_flags; isn_local : int; isn_remote : int }

let cm_header_bytes = 9

let write_cm t w =
  let f = t.flags in
  W.bit w f.syn;
  W.bit w f.ack;
  W.bit w f.fin;
  W.bit w f.rst;
  W.bits w 0 4;
  W.uint32 w (t.isn_local land 0xFFFFFFFF);
  W.uint32 w (t.isn_remote land 0xFFFFFFFF)

let encode_cm t ~payload =
  let w = W.create () in
  write_cm t w;
  W.bytes w payload;
  W.contents w

let read_cm r =
  let syn = R.bit r in
  let ack = R.bit r in
  let fin = R.bit r in
  let rst = R.bit r in
  let _pad = R.bits r 4 in
  let isn_local = R.uint32 r in
  let isn_remote = R.uint32 r in
  { flags = { syn; ack; fin; rst }; isn_local; isn_remote }

let decode_cm s =
  catch_truncated (fun () ->
      let r = R.of_string s in
      let h = read_cm r in
      (h, R.rest r))

let decode_cm_slice sl =
  catch_truncated (fun () ->
      let r = R.of_slice sl in
      let h = read_cm r in
      (h, R.rest_slice r))

(* RD: seq:32 ack:32 flags:8 (has_data|has_ack|sack_count:2|0000),
   then sack_count * (start:32 end:32) *)

type sack_block = { sack_start : int; sack_end : int }

type rd = {
  seq : int;
  ack : int;
  len : int;
  has_data : bool;
  has_ack : bool;
  sacks : sack_block list;
}

let rd_header_bytes = 11

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

let encode_rd t ~payload =
  let w = W.create () in
  write_rd t w;
  W.bytes w payload;
  W.contents w

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

let decode_rd s =
  catch_truncated (fun () ->
      let r = R.of_string s in
      let h = read_rd r in
      (h, R.rest r))

let decode_rd_slice sl =
  catch_truncated (fun () ->
      let r = R.of_slice sl in
      let h = read_rd r in
      (h, R.rest_slice r))

(* OSR: window:16 flags:8 (ecn_echo|ecn_ce|000000) *)

type osr = { window : int; ecn_echo : bool; ecn_ce : bool }

let default_osr = { window = 0xFFFF; ecn_echo = false; ecn_ce = false }

let osr_header_bytes = 3

let write_osr t w =
  W.uint16 w t.window;
  W.bit w t.ecn_echo;
  W.bit w t.ecn_ce;
  W.bits w 0 6

let encode_osr t ~payload =
  let w = W.create () in
  write_osr t w;
  W.bytes w payload;
  W.contents w

let read_osr r =
  let window = R.uint16 r in
  let ecn_echo = R.bit r in
  let ecn_ce = R.bit r in
  let _pad = R.bits r 6 in
  { window; ecn_echo; ecn_ce }

let decode_osr s =
  catch_truncated (fun () ->
      let r = R.of_string s in
      let h = read_osr r in
      (h, R.rest r))

let decode_osr_slice sl =
  catch_truncated (fun () ->
      let r = R.of_slice sl in
      let h = read_osr r in
      (h, R.rest_slice r))

let header_bytes = dm_header_bytes + cm_header_bytes + rd_header_bytes + osr_header_bytes

let layout =
  let f fname owner offset width = { Sublayer.Layout.fname; owner; offset; width } in
  Sublayer.Layout.make_exn ~total_bits:(8 * header_bytes)
    [
      f "src_port" "dm" 0 16;
      f "dst_port" "dm" 16 16;
      f "cm_flags" "cm" 32 8;
      f "isn_local" "cm" 40 32;
      f "isn_remote" "cm" 72 32;
      f "seq" "rd" 104 32;
      f "ack" "rd" 136 32;
      f "len" "rd" 168 16;
      f "rd_flags" "rd" 184 8;
      f "window" "osr" 192 16;
      f "osr_flags" "osr" 208 8;
    ]

(* T3 asserted on the real wire path: with the audit armed (tests), every
   emitted wirebuf's header stack must match the registered bit
   ownership. Eager mode flattens headers away, so there is nothing to
   audit there — the wire bytes are identical by construction. *)
let audit_tx = ref false

let audit_wirebuf wb =
  if !audit_tx then begin
    match Wirebuf.appendices wb with
    | [] -> ()
    | appendix -> Sublayer.Layout.check_appendix_exn layout appendix
  end

(* Rewrite the OSR header's CE bit inside a full wire segment — what an
   ECN-capable router does to a packet it would otherwise have dropped.
   Non-data segments (CM controls) are returned unchanged. *)
let mark_ce wire =
  match decode_dm_slice wire with
  | None -> wire
  | Some (dm, rest) -> (
      match decode_cm_slice rest with
      | None -> wire
      | Some (cm, rd_pdu) ->
          if cm.flags <> no_cm_flags then wire
          else begin
            match decode_rd_slice rd_pdu with
            | None -> wire
            | Some (rd, osr_pdu) -> (
                match decode_osr_slice osr_pdu with
                | None -> wire
                | Some (osr, payload) ->
                    Wirebuf.of_slice payload
                    |> (fun wb ->
                         Wirebuf.push wb ~owner:"osr"
                           (write_osr { osr with ecn_ce = true }))
                    |> (fun wb -> Wirebuf.push wb ~owner:"rd" (write_rd rd))
                    |> (fun wb -> Wirebuf.push wb ~owner:"cm" (write_cm cm))
                    |> (fun wb -> Wirebuf.push wb ~owner:"dm" (write_dm dm))
                    |> Wirebuf.to_slice)
          end)
