(* The bit codec the test oracles are written in: a bit-at-a-time writer
   and reader (one [bit] call per field bit, the bound checked bit by
   bit), so that each step is easy to check by eye. [Codec_oracle]
   writes every header of the libraries with it, field by field, and
   property tests hold the libraries' store-based writers and in-place
   readers to those codecs. A multi-bit field is MSB first, and the
   writer keeps the low [width] bits of a value, whatever lies above
   them. *)

module Writer = struct
  type t = {
    mutable buf : Bytes.t;
    mutable len : int; (* complete bytes in buf *)
    mutable acc : int;
    mutable nbits : int; (* bits pending in acc, 0..7 *)
    mutable total : int; (* total bits appended *)
  }

  let create () = { buf = Bytes.create 64; len = 0; acc = 0; nbits = 0; total = 0 }

  let ensure t n =
    let cap = Bytes.length t.buf in
    if t.len + n > cap then begin
      let buf' = Bytes.create (max (t.len + n) (2 * cap)) in
      Bytes.blit t.buf 0 buf' 0 t.len;
      t.buf <- buf'
    end

  let bit t b =
    t.acc <- (t.acc lsl 1) lor (if b then 1 else 0);
    t.nbits <- t.nbits + 1;
    t.total <- t.total + 1;
    if t.nbits = 8 then begin
      ensure t 1;
      Bytes.set t.buf t.len (Char.chr t.acc);
      t.len <- t.len + 1;
      t.acc <- 0;
      t.nbits <- 0
    end

  let bits t value width =
    assert (width >= 0 && width <= 62);
    for i = width - 1 downto 0 do
      bit t ((value lsr i) land 1 = 1)
    done

  let uint8 t v = bits t v 8
  let uint16 t v = bits t v 16
  let uint32 t v = bits t v 32
  let pad_to_byte t = while t.nbits <> 0 do bit t false done

  let bytes t s =
    if t.nbits <> 0 then invalid_arg "Bitio_oracle.Writer.bytes: not byte-aligned";
    let n = String.length s in
    ensure t n;
    Bytes.blit_string s 0 t.buf t.len n;
    t.len <- t.len + n;
    t.total <- t.total + (8 * n)

  let reserve_uint16 t =
    if t.nbits <> 0 then invalid_arg "Bitio_oracle.Writer.reserve_uint16";
    let pos = t.len in
    ensure t 2;
    Bytes.set t.buf t.len '\000';
    Bytes.set t.buf (t.len + 1) '\000';
    t.len <- t.len + 2;
    t.total <- t.total + 16;
    pos

  let patch_uint16 t pos v =
    Bytes.set t.buf pos (Char.chr ((v lsr 8) land 0xFF));
    Bytes.set t.buf (pos + 1) (Char.chr (v land 0xFF))

  let bit_length t = t.total

  (* RFC 1071 over the bytes written so far, one byte at a time: an even
     byte is a word's high half, an odd one its low half. *)
  let internet_checksum t =
    if t.nbits <> 0 then invalid_arg "Bitio_oracle.Writer.internet_checksum";
    let sum = ref 0 in
    for i = 0 to t.len - 1 do
      let b = Char.code (Bytes.get t.buf i) in
      sum := !sum + if i land 1 = 0 then b lsl 8 else b
    done;
    while !sum lsr 16 <> 0 do
      sum := (!sum land 0xFFFF) + (!sum lsr 16)
    done;
    lnot !sum land 0xFFFF

  let contents t =
    if t.nbits = 0 then Bytes.sub_string t.buf 0 t.len
    else begin
      let b = Bytes.create (t.len + 1) in
      Bytes.blit t.buf 0 b 0 t.len;
      Bytes.set b t.len (Char.chr (t.acc lsl (8 - t.nbits)));
      Bytes.unsafe_to_string b
    end
end

module Reader = struct
  type t = { base : string; mutable pos : int; limit : int }

  exception Truncated

  let of_string base = { base; pos = 0; limit = 8 * String.length base }

  let bit t =
    if t.pos >= t.limit then raise Truncated;
    let b = Char.code t.base.[t.pos lsr 3] in
    let v = b land (0x80 lsr (t.pos land 7)) <> 0 in
    t.pos <- t.pos + 1;
    v

  let bits t width =
    assert (width >= 0 && width <= 62);
    let v = ref 0 in
    for _ = 1 to width do
      v := (!v lsl 1) lor (if bit t then 1 else 0)
    done;
    !v

  let uint8 t = bits t 8
  let uint16 t = bits t 16
  let uint32 t = bits t 32
  let remaining_bits t = t.limit - t.pos

  let bytes t n =
    if t.pos land 7 <> 0 then invalid_arg "Bitio_oracle.Reader.bytes: not byte-aligned";
    String.init n (fun _ -> Char.chr (bits t 8))

  let rest t = bytes t (remaining_bits t / 8)
end
