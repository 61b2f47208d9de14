(* Reference oracle for every header and PDU codec in [Transport],
   [Datalink] and [Network]: Figure 6's DM, CM, RD and OSR, the RFC 793
   header of [Transport.Wire], the ARQ PDU, [Transport.Msg]'s header and
   the HELLO, DV, LS and PV PDUs of Figure 4. These are the bit-codec
   writers and readers the libraries replaced, kept as they were (one
   writer or reader call per field, masking left to the bit writer, a
   short input caught as [Truncated]) because each reads as its field
   list itself; they now run on the bit-at-a-time [Bitio_oracle].
   Property tests hold the libraries' store-based writers and in-place
   readers to these, byte for byte and field for field. *)

open Transport.Segment
module W = Bitio_oracle.Writer
module R = Bitio_oracle.Reader

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

(* RFC 793: src_port:16 dst_port:16 seq:32 ack:32 data_offset:4
   reserved:6 urg ack psh rst syn fin window:16 checksum:16 urgent:16,
   then options; the checksum is reserved, then patched over the whole
   segment. *)
module Wire = struct
  open Transport.Wire

  let encode t ~payload =
    let w = W.create () in
    W.uint16 w t.src_port;
    W.uint16 w t.dst_port;
    W.uint32 w (t.seq land 0xFFFFFFFF);
    W.uint32 w (t.ack land 0xFFFFFFFF);
    W.bits w 5 4 (* data offset: 5 words *);
    W.bits w 0 6 (* reserved *);
    W.bit w t.flags.urg;
    W.bit w t.flags.ack;
    W.bit w t.flags.psh;
    W.bit w t.flags.rst;
    W.bit w t.flags.syn;
    W.bit w t.flags.fin;
    W.uint16 w t.window;
    let cks = W.reserve_uint16 w in
    W.uint16 w 0 (* urgent pointer *);
    W.bytes w payload;
    W.patch_uint16 w cks (W.internet_checksum w);
    W.contents w

  let read r =
    let src_port = R.uint16 r in
    let dst_port = R.uint16 r in
    let seq = R.uint32 r in
    let ack = R.uint32 r in
    let data_offset = R.bits r 4 in
    let _reserved = R.bits r 6 in
    let urg = R.bit r in
    let ackf = R.bit r in
    let psh = R.bit r in
    let rst = R.bit r in
    let syn = R.bit r in
    let fin = R.bit r in
    let window = R.uint16 r in
    let _checksum = R.uint16 r in
    let _urgent = R.uint16 r in
    if data_offset < 5 then None
    else begin
      (* Skip any options. *)
      let opts = 4 * (data_offset - 5) in
      if 8 * opts > R.remaining_bits r then None
      else begin
        let (_ : string) = R.bytes r opts in
        Some
          { src_port; dst_port; seq; ack;
            flags = { urg; ack = ackf; psh; rst; syn; fin }; window }
      end
    end

  let decode s =
    if String.length s < header_bytes then None
    else if not (Bitkit.Checksum.internet_valid s) then None
    else
      Option.join
        (catch_truncated (fun () ->
             let r = R.of_string s in
             Option.map (fun t -> (t, R.rest r)) (read r)))
end

(* ARQ: kind:8 (0 data, 1 ack) seq:16, then a data PDU's payload; an
   ACK carries nothing after its header. *)
module Arq = struct
  type pdu = Data of int * string | Ack of int

  let encode_pdu pdu =
    let w = W.create () in
    (match pdu with
    | Data (seq, payload) ->
        W.uint8 w 0;
        W.uint16 w (seq land 0xFFFF);
        W.bytes w payload
    | Ack seq ->
        W.uint8 w 1;
        W.uint16 w (seq land 0xFFFF));
    W.contents w

  let decode_pdu s =
    Option.join
      (catch_truncated (fun () ->
           let r = R.of_string s in
           let kind = R.uint8 r in
           let seq = R.uint16 r in
           match kind with
           | 0 -> Some (Data (seq, R.rest r))
           | 1 -> if R.remaining_bits r = 0 then Some (Ack seq) else None
           | _ -> None))
end

(* Msg: window:16 msg_id:16 frag_off:16 msg_len:16 *)
module Msg = struct
  open Transport.Msg

  let write_header h w =
    W.uint16 w h.window;
    W.uint16 w h.msg_id;
    W.uint16 w h.frag_off;
    W.uint16 w h.msg_len

  let read_header r =
    let window = R.uint16 r in
    let msg_id = R.uint16 r in
    let frag_off = R.uint16 r in
    let msg_len = R.uint16 r in
    { window; msg_id; frag_off; msg_len }

  let encode_header = encode write_header
  let decode_header = decode read_header
end

(* The network PDUs of Figure 4: a magic byte, then the sublayer's own
   fields; bytes after the PDU are ignored. *)
module Pdu = struct
  let encode write =
    let w = W.create () in
    write w;
    W.contents w

  let decode magic read s =
    catch_truncated (fun () ->
        let r = R.of_string s in
        if R.uint8 r <> magic then None else Some (read r))
    |> Option.join

  (* Hello: magic:8 self:32 *)

  let encode_hello self =
    encode (fun w ->
        W.uint8 w 0x48;
        W.uint32 w self)

  let decode_hello = decode 0x48 R.uint32

  (* DV: magic:8 count:16, then dst:32 metric:8 per entry *)

  let encode_dv entries =
    encode (fun w ->
        W.uint8 w 0x44;
        W.uint16 w (List.length entries);
        List.iter
          (fun (dst, metric) ->
            W.uint32 w dst;
            W.uint8 w metric)
          entries)

  let decode_dv =
    decode 0x44 (fun r ->
        let count = R.uint16 r in
        List.init count (fun _ ->
            let dst = R.uint32 r in
            let metric = R.uint8 r in
            (dst, metric)))

  (* LS: magic:8 origin:32 seq:32 count:8, then adj:32 per neighbour *)

  let encode_lsp { Network.Pdu.origin; seq; adj } =
    encode (fun w ->
        W.uint8 w 0x4C;
        W.uint32 w origin;
        W.uint32 w seq;
        W.uint8 w (List.length adj);
        List.iter (W.uint32 w) adj)

  let decode_lsp =
    decode 0x4C (fun r ->
        let origin = R.uint32 r in
        let seq = R.uint32 r in
        let count = R.uint8 r in
        let adj = List.init count (fun _ -> R.uint32 r) in
        { Network.Pdu.origin; seq; adj })

  (* PV: magic:8 count:16, then dst:32 len:8 and len * addr:32 per entry *)

  let encode_pv entries =
    encode (fun w ->
        W.uint8 w 0x50;
        W.uint16 w (List.length entries);
        List.iter
          (fun (dst, path) ->
            W.uint32 w dst;
            W.uint8 w (List.length path);
            List.iter (W.uint32 w) path)
          entries)

  let decode_pv =
    decode 0x50 (fun r ->
        let count = R.uint16 r in
        List.init count (fun _ ->
            let dst = R.uint32 r in
            let len = R.uint8 r in
            let path = List.init len (fun _ -> R.uint32 r) in
            (dst, path)))
end
