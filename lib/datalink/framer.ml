module Bitseq = Bitkit.Bitseq
module Slice = Bitkit.Slice

type t = {
  name : string;
  frame : Slice.t -> Bitseq.t;
  deframe : Bitseq.t -> string option;
}

let hdlc scheme =
  let codec = Stuffing.Fast.compile scheme in
  {
    name = Printf.sprintf "hdlc[%s]" (Stuffing.Rule.string_of_bits scheme.Stuffing.Rule.flag);
    frame =
      (fun (p : Slice.t) ->
        Stuffing.Fast.encode_sub codec (Bitseq.of_string p.base) ~pos:(8 * p.off)
          ~len:(8 * p.len));
    deframe =
      (fun bits ->
        match Stuffing.Fast.decode codec bits with
        | None -> None
        | Some body ->
            if Bitseq.length body land 7 = 0 then Some (Bitseq.to_string body)
            else None);
  }

(* COBS encodes a byte string with no interior 0x00 bytes; we terminate
   with a single 0x00. Each block starts with a code byte: code-1 literal
   non-zero bytes follow, and a code < 0xFF implies a virtual zero (except
   for the final block). *)
let cobs_encode s =
  let buf = Buffer.create (String.length s + 2) in
  let block = Buffer.create 254 in
  let flush_block ~last =
    ignore last;
    Buffer.add_char buf (Char.chr (Buffer.length block + 1));
    Buffer.add_buffer buf block;
    Buffer.clear block
  in
  String.iter
    (fun c ->
      if c = '\000' then flush_block ~last:false
      else begin
        Buffer.add_char block c;
        if Buffer.length block = 254 then flush_block ~last:false
      end)
    s;
  flush_block ~last:true;
  Buffer.add_char buf '\000';
  Buffer.contents buf

let cobs_decode s =
  let n = String.length s in
  if n = 0 || s.[n - 1] <> '\000' then None
  else begin
    let body = String.sub s 0 (n - 1) in
    if String.contains body '\000' then None
    else begin
      let buf = Buffer.create n in
      let len = String.length body in
      let rec blocks pos first =
        if pos >= len then if first then None else Some (Buffer.contents buf)
        else begin
          let code = Char.code body.[pos] in
          if code = 0 || pos + code > len then None
          else begin
            Buffer.add_string buf (String.sub body (pos + 1) (code - 1));
            let pos = pos + code in
            if pos < len && code < 0xFF then Buffer.add_char buf '\000';
            blocks pos false
          end
        end
      in
      blocks 0 true
    end
  end

let cobs =
  {
    name = "cobs";
    frame = (fun payload -> Bitseq.of_string (cobs_encode (Slice.to_string payload)));
    deframe =
      (fun bits ->
        if Bitseq.length bits land 7 <> 0 then None
        else cobs_decode (Bitseq.to_string bits));
  }

let dle = '\016'
let stx = '\002'
let etx = '\003'

let dle_stx_encode s =
  let buf = Buffer.create (String.length s + 4) in
  Buffer.add_char buf dle;
  Buffer.add_char buf stx;
  String.iter
    (fun c ->
      Buffer.add_char buf c;
      if c = dle then Buffer.add_char buf dle)
    s;
  Buffer.add_char buf dle;
  Buffer.add_char buf etx;
  Buffer.contents buf

let dle_stx_decode s =
  let n = String.length s in
  if n < 4 || s.[0] <> dle || s.[1] <> stx || s.[n - 2] <> dle || s.[n - 1] <> etx then None
  else begin
    let buf = Buffer.create n in
    let rec go i =
      if i >= n - 2 then Some (Buffer.contents buf)
      else if s.[i] = dle then
        if i + 1 < n - 2 && s.[i + 1] = dle then begin
          Buffer.add_char buf dle;
          go (i + 2)
        end
        else None (* a lone DLE inside the body is ill-formed *)
      else begin
        Buffer.add_char buf s.[i];
        go (i + 1)
      end
    in
    go 2
  end

let dle_stx =
  {
    name = "dle-stx";
    frame = (fun payload -> Bitseq.of_string (dle_stx_encode (Slice.to_string payload)));
    deframe =
      (fun bits ->
        if Bitseq.length bits land 7 <> 0 then None
        else dle_stx_decode (Bitseq.to_string bits));
  }

let length_prefix =
  {
    name = "length-prefix";
    frame =
      (fun payload ->
        let payload = Slice.to_string payload in
        let n = String.length payload in
        if n > 0xFFFF then invalid_arg "Framer.length_prefix: payload too long";
        let header = String.init 2 (fun i -> Char.chr ((n lsr (8 * (1 - i))) land 0xFF)) in
        Bitseq.of_string (header ^ payload));
    deframe =
      (fun bits ->
        if Bitseq.length bits land 7 <> 0 then None
        else begin
          let s = Bitseq.to_string bits in
          if String.length s < 2 then None
          else begin
            let n = (Char.code s.[0] lsl 8) lor Char.code s.[1] in
            if String.length s <> n + 2 then None else Some (String.sub s 2 n)
          end
        end);
  }

let all = [ hdlc Stuffing.Rule.hdlc; cobs; dle_stx; length_prefix ]
