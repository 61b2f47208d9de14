(* Reference oracle for [Bitkit.Crc]'s slicing-by-8 kernel: the
   byte-at-a-time table engine it replaced, kept as it was (one boxed
   int64 table per parameterisation, a separate loop for reflected and
   MSB-first CRCs, [init] reflected bit by bit) because each step is the
   textbook recurrence. Property tests hold the library's digests and
   chained updates to these, value for value. *)

type t = { p : Bitkit.Crc.params; table : int64 array; mask : int64 }

let mask_of_width w =
  if w = 64 then -1L else Int64.sub (Int64.shift_left 1L w) 1L

let reflect v width =
  let r = ref 0L in
  for i = 0 to width - 1 do
    if Int64.logand (Int64.shift_right_logical v i) 1L = 1L then
      r := Int64.logor !r (Int64.shift_left 1L (width - 1 - i))
  done;
  !r

(* For reflected CRCs the whole computation runs LSB-first: the table is
   built from the reflected polynomial and the running remainder is kept
   reflected, so no per-byte reflection is needed. *)
let make (p : Bitkit.Crc.params) =
  let mask = mask_of_width p.width in
  let table = Array.make 256 0L in
  if p.refin then begin
    let rpoly = reflect p.poly p.width in
    for i = 0 to 255 do
      let r = ref (Int64.of_int i) in
      for _ = 1 to 8 do
        r :=
          if Int64.logand !r 1L = 1L then
            Int64.logxor (Int64.shift_right_logical !r 1) rpoly
          else Int64.shift_right_logical !r 1
      done;
      table.(i) <- !r
    done
  end
  else begin
    let top = Int64.shift_left 1L (p.width - 1) in
    for i = 0 to 255 do
      let r = ref (Int64.shift_left (Int64.of_int i) (p.width - 8)) in
      for _ = 1 to 8 do
        r :=
          if Int64.logand !r top <> 0L then
            Int64.logand (Int64.logxor (Int64.shift_left !r 1) p.poly) mask
          else Int64.logand (Int64.shift_left !r 1) mask
      done;
      table.(i) <- !r
    done
  end;
  { p; table; mask }

let init t = if t.p.refin then reflect t.p.init t.p.width else t.p.init

let update t crc0 s pos len =
  let p = t.p in
  let crc = ref crc0 in
  if p.refin then
    for i = pos to pos + len - 1 do
      let idx =
        Int64.to_int (Int64.logand (Int64.logxor !crc (Int64.of_int (Char.code s.[i]))) 0xFFL)
      in
      crc := Int64.logxor t.table.(idx) (Int64.shift_right_logical !crc 8)
    done
  else
    for i = pos to pos + len - 1 do
      let idx =
        Int64.to_int
          (Int64.logand
             (Int64.logxor
                (Int64.shift_right_logical !crc (p.width - 8))
                (Int64.of_int (Char.code s.[i])))
             0xFFL)
      in
      crc := Int64.logand (Int64.logxor t.table.(idx) (Int64.shift_left !crc 8)) t.mask
    done;
  !crc

let finish t crc = Int64.logand (Int64.logxor crc t.p.xorout) t.mask

let digest t s = finish t (update t (init t) s 0 (String.length s))
