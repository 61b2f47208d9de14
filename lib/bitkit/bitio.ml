module Writer = struct
  type t = {
    mutable buf : Bytes.t;
    mutable len : int; (* complete bytes in buf *)
    mutable acc : int;
    mutable nbits : int; (* bits pending in acc, 0..7 *)
    mutable total : int; (* total bits appended *)
  }

  let create ?(size = 64) () =
    { buf = Bytes.create (max 1 size); len = 0; acc = 0; nbits = 0; total = 0 }

  let ensure t n =
    let cap = Bytes.length t.buf in
    if t.len + n > cap then begin
      let cap' = max (t.len + n) (2 * cap) in
      let buf' = Bytes.create cap' in
      Bytes.blit t.buf 0 buf' 0 t.len;
      t.buf <- buf'
    end

  (* A field is shifted into the pending-bit accumulator in one step and
     every whole byte it completes is stored at once. Fewer than 8 bits
     wait in [acc] between calls, so a field of up to 56 bits fits beside
     them in the 63-bit int; a wider one goes as two halves. *)
  let rec bits t value width =
    assert (width >= 0 && width <= 62);
    if width > 56 then begin
      bits t (value lsr 32) (width - 32);
      bits t value 32
    end
    else begin
      let n = t.nbits + width in
      let acc = (t.acc lsl width) lor (value land ((1 lsl width) - 1)) in
      let whole = n lsr 3 in
      ensure t whole;
      for i = 1 to whole do
        Bytes.unsafe_set t.buf (t.len + i - 1)
          (Char.unsafe_chr ((acc lsr (n - (8 * i))) land 0xFF))
      done;
      t.len <- t.len + whole;
      t.nbits <- n land 7;
      t.acc <- acc land ((1 lsl t.nbits) - 1);
      t.total <- t.total + width
    end

  let bit t b = bits t (Bool.to_int b) 1

  let uint8 t v = bits t v 8
  let uint16 t v = bits t v 16
  let uint32 t v = bits t v 32

  let pad_to_byte t = if t.nbits <> 0 then bits t 0 (8 - t.nbits)

  let bytes t s =
    if t.nbits <> 0 then invalid_arg "Bitio.Writer.bytes: not byte-aligned";
    let n = String.length s in
    ensure t n;
    Bytes.blit_string s 0 t.buf t.len n;
    Slice.note_copy n;
    t.len <- t.len + n;
    t.total <- t.total + (8 * n)

  let slice t sl =
    if t.nbits <> 0 then invalid_arg "Bitio.Writer.slice: not byte-aligned";
    let n = Slice.length sl in
    ensure t n;
    Slice.blit sl t.buf t.len;
    t.len <- t.len + n;
    t.total <- t.total + (8 * n)

  (* Reserve-then-patch: a checksum (or length) field can be left as two
     zero bytes and filled in after the covered bytes are written, so the
     packet is built in a single pass over a single buffer. *)
  let reserve_uint16 t =
    if t.nbits <> 0 then
      invalid_arg "Bitio.Writer.reserve_uint16: not byte-aligned";
    let pos = t.len in
    ensure t 2;
    Bytes.unsafe_set t.buf t.len '\000';
    Bytes.unsafe_set t.buf (t.len + 1) '\000';
    t.len <- t.len + 2;
    t.total <- t.total + 16;
    pos

  let patch_uint16 t pos v =
    if pos < 0 || pos + 2 > t.len then invalid_arg "Bitio.Writer.patch_uint16";
    Bytes.set t.buf pos (Char.chr ((v lsr 8) land 0xFF));
    Bytes.set t.buf (pos + 1) (Char.chr (v land 0xFF))

  let bit_length t = t.total
  let byte_length t = (t.total + 7) / 8

  (* One's-complement internet checksum over the bytes written so far
     (reserved fields still zero contribute nothing, per RFC 1071). *)
  let internet_checksum t =
    if t.nbits <> 0 then
      invalid_arg "Bitio.Writer.internet_checksum: not byte-aligned";
    let sum = ref 0 in
    let i = ref 0 in
    while !i + 1 < t.len do
      sum :=
        !sum
        + ((Char.code (Bytes.unsafe_get t.buf !i) lsl 8)
          lor Char.code (Bytes.unsafe_get t.buf (!i + 1)));
      i := !i + 2
    done;
    if t.len land 1 = 1 then
      sum := !sum + (Char.code (Bytes.unsafe_get t.buf (t.len - 1)) lsl 8);
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

  let to_slice t = Slice.of_string (contents t)
end

module Reader = struct
  (* [pos] and [limit] are absolute bit offsets into [base], so a reader
     over a slice never copies the viewed bytes. *)
  type t = { base : string; mutable pos : int; limit : int }

  exception Truncated

  let of_string base = { base; pos = 0; limit = 8 * String.length base }

  let of_slice (sl : Slice.t) =
    { base = sl.Slice.base;
      pos = 8 * sl.Slice.off;
      limit = 8 * (sl.Slice.off + sl.Slice.len) }

  (* The bytes a field covers are gathered big-endian into one int and
     the field is shifted out of it. A field of up to 56 bits covers at
     most 8 bytes, and the low 63 bits of those hold it whole; a wider one
     is read as two halves. The bound is checked first, so a field that
     runs past [limit] consumes nothing. *)
  let rec bits t width =
    assert (width >= 0 && width <= 62);
    if width > t.limit - t.pos then raise Truncated;
    if width > 56 then begin
      let hi = bits t (width - 32) in
      (hi lsl 32) lor bits t 32
    end
    else begin
      let stop = t.pos + width in
      let last = (stop + 7) lsr 3 in
      let acc = ref 0 in
      for i = t.pos lsr 3 to last - 1 do
        acc := (!acc lsl 8) lor Char.code (String.unsafe_get t.base i)
      done;
      t.pos <- stop;
      (!acc lsr ((8 * last) - stop)) land ((1 lsl width) - 1)
    end

  let bit t = bits t 1 = 1

  let uint8 t = bits t 8
  let uint16 t = bits t 16
  let uint32 t = bits t 32

  let bytes t n =
    if t.pos land 7 <> 0 then invalid_arg "Bitio.Reader.bytes: not byte-aligned";
    if t.pos + (8 * n) > t.limit then raise Truncated;
    let start = t.pos lsr 3 in
    t.pos <- t.pos + (8 * n);
    Slice.note_copy n;
    String.sub t.base start n

  let skip_to_byte t = t.pos <- (t.pos + 7) land lnot 7

  let remaining_bits t = t.limit - t.pos

  let rest t = bytes t (remaining_bits t / 8)

  let rest_slice t =
    if t.pos land 7 <> 0 then
      invalid_arg "Bitio.Reader.rest_slice: not byte-aligned";
    let off = t.pos lsr 3 in
    let len = remaining_bits t / 8 in
    t.pos <- t.pos + (8 * len);
    Slice.make t.base ~off ~len
end
