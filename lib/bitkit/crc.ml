type params = {
  name : string;
  width : int;
  poly : int64;
  init : int64;
  refin : bool;
  refout : bool;
  xorout : int64;
  check : int64;
}

(* One slicing-by-8 kernel for every width and bit order.

   A reflected CRC consumes its register from the low byte up: per input
   byte [b], [r <- s0.((r lxor b) land 0xFF) lxor (r lsr 8)]. An MSB-first
   CRC of width [w] consumes its register from the top bit down, but kept
   left-aligned in 64 bits and byte-swapped it too is consumed from the
   low byte up, by the same recurrence over its own [s0] (the byte-swapped
   left-aligned table). So both orders share one kernel and differ only in
   [s0] and in converting the register at the ends of [update].

   Eight steps of the recurrence fold into one: xor eight little-endian
   input bytes into [r], and the new [r] is the xor, over the bytes [j]
   of that word, of [s_(7-j)] at byte [j], where [s_k] is [s0] followed
   by [k] zero bytes. A tail of [n < 8] bytes takes [s_(n-1) .. s_0] the
   same way and keeps the unconsumed [r lsr 8n]. The eight tables are
   unboxed words in one [Bytes], in host order, built once by [make]. *)

external get64u : string -> int -> int64 = "%caml_string_get64u"
external tget : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external tset : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external swap64 : int64 -> int64 = "%bswap_int64"

type t = {
  p : params;
  init : int64;
  mask : int64;
  slices : Bytes.t;  (* [s_k] at byte [v] is the word at byte [(k lsl 11) lor (v lsl 3)] *)
}

let[@inline] get64_le s i =
  let w = get64u s i in
  if Sys.big_endian then swap64 w else w

(* [s_k] at byte [j] of [x], the byte shifted straight to its offset in
   the slice. *)
let[@inline] slice tab k x j =
  let off =
    if j = 0 then (Int64.to_int x lsl 3) land 0x7F8
    else Int64.to_int (Int64.shift_right_logical x ((8 * j) - 3)) land 0x7F8
  in
  tget tab ((k lsl 11) lor off)

let mask_of_width w =
  if w = 64 then -1L else Int64.sub (Int64.shift_left 1L w) 1L

let reflect v width =
  let r = ref 0L in
  for i = 0 to width - 1 do
    if Int64.logand (Int64.shift_right_logical v i) 1L = 1L then
      r := Int64.logor !r (Int64.shift_left 1L (width - 1 - i))
  done;
  !r

let make p =
  if p.width < 8 || p.width > 64 then invalid_arg "Crc.make: width";
  if p.refin <> p.refout then invalid_arg "Crc.make: refin <> refout unsupported";
  let slices = Bytes.create (8 * 8 * 256) in
  let get k v = tget slices ((k lsl 11) lor (v lsl 3)) in
  let set k v w = tset slices ((k lsl 11) lor (v lsl 3)) w in
  (* [s0]: one byte through the bitwise division, in register form *)
  if p.refin then begin
    let rpoly = reflect p.poly p.width in
    for v = 0 to 255 do
      let r = ref (Int64.of_int v) in
      for _ = 1 to 8 do
        r :=
          if Int64.logand !r 1L = 1L then
            Int64.logxor (Int64.shift_right_logical !r 1) rpoly
          else Int64.shift_right_logical !r 1
      done;
      set 0 v !r
    done
  end
  else begin
    let poly = Int64.shift_left p.poly (64 - p.width) in
    for v = 0 to 255 do
      let r = ref (Int64.shift_left (Int64.of_int v) 56) in
      for _ = 1 to 8 do
        r :=
          if Int64.compare !r 0L < 0 then Int64.logxor (Int64.shift_left !r 1) poly
          else Int64.shift_left !r 1
      done;
      set 0 v (swap64 !r)
    done
  end;
  for k = 1 to 7 do
    for v = 0 to 255 do
      let w = get (k - 1) v in
      set k v (Int64.logxor (Int64.shift_right_logical w 8) (get 0 (Int64.to_int w land 0xFF)))
    done
  done;
  { p; slices; mask = mask_of_width p.width;
    init = (if p.refin then reflect p.init p.width else p.init) }

let params t = t.p

let init t = t.init

let update t crc0 s pos len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Crc.update";
  let tab = t.slices and w = t.p.width in
  let r = ref crc0 in
  if not t.p.refin then r := swap64 (Int64.shift_left !r (64 - w));
  let i = ref pos and stop = pos + len in
  while !i + 8 <= stop do
    let x = Int64.logxor !r (get64_le s !i) in
    r :=
      Int64.logxor
        (Int64.logxor
           (Int64.logxor (slice tab 7 x 0) (slice tab 6 x 1))
           (Int64.logxor (slice tab 5 x 2) (slice tab 4 x 3)))
        (Int64.logxor
           (Int64.logxor (slice tab 3 x 4) (slice tab 2 x 5))
           (Int64.logxor (slice tab 1 x 6) (slice tab 0 x 7)));
    i := !i + 8
  done;
  let n = stop - !i in
  if n > 0 then begin
    let b = ref 0 in
    for j = n - 1 downto 0 do
      b := (!b lsl 8) lor Char.code (String.unsafe_get s (!i + j))
    done;
    let x = Int64.logxor !r (Int64.of_int !b) in
    let acc = ref (Int64.shift_right_logical x (8 * n)) in
    for j = 0 to n - 1 do
      acc := Int64.logxor !acc (slice tab (n - 1 - j) x j)
    done;
    r := !acc
  end;
  if not t.p.refin then r := Int64.shift_right_logical (swap64 !r) (64 - w);
  !r

let finish t crc = Int64.logand (Int64.logxor crc t.p.xorout) t.mask

let digest_sub t s pos len = finish t (update t t.init s pos len)

let digest t s = digest_sub t s 0 (String.length s)

let self_test t = digest t "123456789" = t.p.check

let crc8 =
  { name = "CRC-8"; width = 8; poly = 0x07L; init = 0L; refin = false;
    refout = false; xorout = 0L; check = 0xF4L }

let crc16_ccitt =
  { name = "CRC-16/CCITT-FALSE"; width = 16; poly = 0x1021L; init = 0xFFFFL;
    refin = false; refout = false; xorout = 0L; check = 0x29B1L }

let crc16_arc =
  { name = "CRC-16/ARC"; width = 16; poly = 0x8005L; init = 0L; refin = true;
    refout = true; xorout = 0L; check = 0xBB3DL }

let crc32 =
  { name = "CRC-32"; width = 32; poly = 0x04C11DB7L; init = 0xFFFFFFFFL;
    refin = true; refout = true; xorout = 0xFFFFFFFFL; check = 0xCBF43926L }

let crc32c =
  { name = "CRC-32C"; width = 32; poly = 0x1EDC6F41L; init = 0xFFFFFFFFL;
    refin = true; refout = true; xorout = 0xFFFFFFFFL; check = 0xE3069283L }

let crc64_xz =
  { name = "CRC-64/XZ"; width = 64; poly = 0x42F0E1EBA9EA3693L;
    init = -1L; refin = true; refout = true; xorout = -1L;
    check = 0x995DC9BBDF1939FAL }

let crc64_ecma =
  { name = "CRC-64/ECMA-182"; width = 64; poly = 0x42F0E1EBA9EA3693L;
    init = 0L; refin = false; refout = false; xorout = 0L;
    check = 0x6C40DF5F0B497347L }

let all = [ crc8; crc16_ccitt; crc16_arc; crc32; crc32c; crc64_xz; crc64_ecma ]
