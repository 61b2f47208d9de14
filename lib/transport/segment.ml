module Slice = Bitkit.Slice
module Wirebuf = Bitkit.Wirebuf

(* Each sublayer's header has one writer and one reader. [write_x]
   returns the header's exact bytes, filled by big-endian 8/16/32-bit
   stores that mask every field to its width. [decode_x_slice] checks
   the view's length once, reads the fields in place and returns a
   zero-copy view of the rest. No bit writer, reader, closure or
   exception is involved. *)

(* Each store keeps the field's low 8, 16 or 32 bits, negative values
   included. *)
let set8 = Bytes.set_uint8
let set16 = Bytes.set_uint16_be
let set32 b i v = Bytes.set_int32_be b i (Int32.of_int v)
let get8 = String.get_uint8
let get16 = String.get_uint16_be
let get32 s i = Int32.to_int (String.get_int32_be s i) land 0xFFFFFFFF
let bit b mask = if b then mask else 0

(* The view past an [n]-byte header. *)
let rest (sl : Slice.t) n = Slice.sub sl ~pos:n ~len:(sl.len - n)

(* DM: src_port:16 dst_port:16 *)

type dm = { src_port : int; dst_port : int }

let dm_header_bytes = 4

let write_dm t =
  let b = Bytes.create dm_header_bytes in
  set16 b 0 t.src_port;
  set16 b 2 t.dst_port;
  Bytes.unsafe_to_string b

let decode_dm_slice (sl : Slice.t) =
  if sl.len < dm_header_bytes then None
  else
    Some
      ( { src_port = get16 sl.base sl.off; dst_port = get16 sl.base (sl.off + 2) },
        rest sl dm_header_bytes )

let peek_ports (sl : Slice.t) =
  if sl.len < dm_header_bytes then None
  else Some (get16 sl.base sl.off, get16 sl.base (sl.off + 2))

(* CM: flags:8 (syn|ack|fin|rst|0000) isn_local:32 isn_remote:32 *)

type cm_flags = { syn : bool; ack : bool; fin : bool; rst : bool }

let no_cm_flags = { syn = false; ack = false; fin = false; rst = false }

type cm = { flags : cm_flags; isn_local : int; isn_remote : int }

let cm_header_bytes = 9

let write_cm t =
  let f = t.flags in
  let b = Bytes.create cm_header_bytes in
  set8 b 0 (bit f.syn 0x80 lor bit f.ack 0x40 lor bit f.fin 0x20 lor bit f.rst 0x10);
  set32 b 1 t.isn_local;
  set32 b 5 t.isn_remote;
  Bytes.unsafe_to_string b

(* A data segment carries no flag, so it shares [no_cm_flags]. *)
let cm_flags_of fl =
  if fl land 0xF0 = 0 then no_cm_flags
  else
    { syn = fl land 0x80 <> 0; ack = fl land 0x40 <> 0; fin = fl land 0x20 <> 0;
      rst = fl land 0x10 <> 0 }

let decode_cm_slice (sl : Slice.t) =
  if sl.len < cm_header_bytes then None
  else
    let s = sl.base and o = sl.off in
    Some
      ( { flags = cm_flags_of (get8 s o); isn_local = get32 s (o + 1);
          isn_remote = get32 s (o + 5) },
        rest sl cm_header_bytes )

(* RD: seq:32 ack:32 len:16 flags:8 (has_data|has_ack|sack_count:2|0000),
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

let rec put_sacks b pos = function
  | [] -> ()
  | blk :: more ->
      set32 b pos blk.sack_start;
      set32 b (pos + 4) blk.sack_end;
      put_sacks b (pos + 8) more

let write_rd t =
  let n = List.length t.sacks in
  if n > 3 then invalid_arg "write_rd: >3 sacks";
  let b = Bytes.create (rd_header_bytes + (8 * n)) in
  set32 b 0 t.seq;
  set32 b 4 t.ack;
  set16 b 8 t.len;
  set8 b 10 (bit t.has_data 0x80 lor bit t.has_ack 0x40 lor (n lsl 4));
  put_sacks b rd_header_bytes t.sacks;
  Bytes.unsafe_to_string b

let rec get_sacks s pos n =
  if n = 0 then []
  else
    let blk = { sack_start = get32 s pos; sack_end = get32 s (pos + 4) } in
    blk :: get_sacks s (pos + 8) (n - 1)

let decode_rd_slice (sl : Slice.t) =
  if sl.len < rd_header_bytes then None
  else
    let s = sl.base and o = sl.off in
    let fl = get8 s (o + 10) in
    let nsacks = (fl lsr 4) land 3 in
    let hlen = rd_header_bytes + (8 * nsacks) in
    if sl.len < hlen then None
    else
      Some
        ( { seq = get32 s o; ack = get32 s (o + 4); len = get16 s (o + 8);
            has_data = fl land 0x80 <> 0; has_ack = fl land 0x40 <> 0;
            sacks = get_sacks s (o + rd_header_bytes) nsacks },
          rest sl hlen )

(* OSR: window:16 flags:8 (ecn_echo|ecn_ce|000000) *)

type osr = { window : int; ecn_echo : bool; ecn_ce : bool }

let default_osr = { window = 0xFFFF; ecn_echo = false; ecn_ce = false }

let osr_header_bytes = 3

let write_osr t =
  let b = Bytes.create osr_header_bytes in
  set16 b 0 t.window;
  set8 b 2 (bit t.ecn_echo 0x80 lor bit t.ecn_ce 0x40);
  Bytes.unsafe_to_string b

let osr_at s o =
  let fl = get8 s (o + 2) in
  { window = get16 s o; ecn_echo = fl land 0x80 <> 0; ecn_ce = fl land 0x40 <> 0 }

let decode_osr_slice (sl : Slice.t) =
  if sl.len < osr_header_bytes then None
  else Some (osr_at sl.base sl.off, rest sl osr_header_bytes)

let decode_osr_header (sl : Slice.t) =
  if sl.len < osr_header_bytes then None else Some (osr_at sl.base sl.off)

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
                         Wirebuf.push wb ~owner:"osr" (write_osr { osr with ecn_ce = true }))
                    |> (fun wb -> Wirebuf.push wb ~owner:"rd" (write_rd rd))
                    |> (fun wb -> Wirebuf.push wb ~owner:"cm" (write_cm cm))
                    |> (fun wb -> Wirebuf.push wb ~owner:"dm" (write_dm dm))
                    |> Wirebuf.to_slice)
          end)
