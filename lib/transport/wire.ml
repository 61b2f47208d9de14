type flags = { urg : bool; ack : bool; psh : bool; rst : bool; syn : bool; fin : bool }

let no_flags = { urg = false; ack = false; psh = false; rst = false; syn = false; fin = false }

type t = {
  src_port : int;
  dst_port : int;
  seq : int;
  ack : int;
  flags : flags;
  window : int;
}

let header_bytes = 20

(* src_port:16 dst_port:16 seq:32 ack:32 data_offset:4 reserved:6
   flags:6 (urg|ack|psh|rst|syn|fin) window:16 checksum:16 urgent:16,
   then [4 * (data_offset - 5)] option bytes. Stores keep each field's
   low 16 or 32 bits; the checksum field is zero while the RFC 1071 sum
   runs over header and payload, then stored in place. *)

let bit b mask = if b then mask else 0
let get16 = String.get_uint16_be
let get32 s i = Int32.to_int (String.get_int32_be s i) land 0xFFFFFFFF

let encode t ~payload =
  let n = header_bytes + String.length payload in
  let b = Bytes.create n in
  let f = t.flags in
  Bytes.set_uint16_be b 0 t.src_port;
  Bytes.set_uint16_be b 2 t.dst_port;
  Bytes.set_int32_be b 4 (Int32.of_int t.seq);
  Bytes.set_int32_be b 8 (Int32.of_int t.ack);
  Bytes.set_uint16_be b 12
    ((5 lsl 12) lor bit f.urg 0x20 lor bit f.ack 0x10 lor bit f.psh 0x08
    lor bit f.rst 0x04 lor bit f.syn 0x02 lor bit f.fin 0x01);
  Bytes.set_uint16_be b 14 t.window;
  Bytes.set_int32_be b 16 0l (* checksum and urgent pointer *);
  Bytes.blit_string payload 0 b header_bytes (String.length payload);
  Bitkit.Slice.note_copy (String.length payload);
  let cks = Bitkit.Checksum.internet_sub (Bytes.unsafe_to_string b) ~pos:0 ~len:n in
  Bytes.set_uint16_be b 16 cks;
  Bytes.unsafe_to_string b

let decode_slice (sl : Bitkit.Slice.t) =
  if sl.len < header_bytes then None
  else
    let s = sl.base and o = sl.off in
    let hlen = 4 * (String.get_uint8 s (o + 12) lsr 4) in
    if hlen < header_bytes || hlen > sl.len then None
    else if Bitkit.Checksum.internet_sub s ~pos:o ~len:sl.len <> 0 then None
    else
      let fl = String.get_uint8 s (o + 13) in
      Some
        ( { src_port = get16 s o; dst_port = get16 s (o + 2); seq = get32 s (o + 4);
            ack = get32 s (o + 8);
            flags =
              { urg = fl land 0x20 <> 0; ack = fl land 0x10 <> 0; psh = fl land 0x08 <> 0;
                rst = fl land 0x04 <> 0; syn = fl land 0x02 <> 0; fin = fl land 0x01 <> 0 };
            window = get16 s (o + 14) },
          Bitkit.Slice.sub sl ~pos:hlen ~len:(sl.len - hlen) )

let peek_ports (sl : Bitkit.Slice.t) =
  if sl.len < 4 then None else Some (get16 sl.base sl.off, get16 sl.base (sl.off + 2))

let pp fmt t =
  let f = t.flags in
  Format.fprintf fmt "%d>%d seq=%d ack=%d [%s%s%s%s%s] win=%d" t.src_port t.dst_port
    t.seq t.ack
    (if f.syn then "S" else "")
    (if f.ack then "A" else "")
    (if f.fin then "F" else "")
    (if f.rst then "R" else "")
    (if f.psh then "P" else "")
    t.window
