(* Bits are stored MSB-first: bit [i] lives in byte [i / 8] at bit
   position [7 - i mod 8]. [len] is the number of valid bits; trailing
   padding bits in the last byte are always zero, which makes [equal]
   and [compare] a plain byte comparison. *)
type t = { data : Bytes.t; len : int }

let empty = { data = Bytes.empty; len = 0 }

let length t = t.len

let bytes_for_bits n = (n + 7) / 8

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Bitseq.get";
  let b = Char.code (Bytes.unsafe_get t.data (i lsr 3)) in
  b land (0x80 lsr (i land 7)) <> 0

let unsafe_set_bit data i v =
  let byte = i lsr 3 in
  let mask = 0x80 lsr (i land 7) in
  let b = Char.code (Bytes.unsafe_get data byte) in
  let b = if v then b lor mask else b land lnot mask in
  Bytes.unsafe_set data byte (Char.chr b)

let init n f =
  let data = Bytes.make (bytes_for_bits n) '\000' in
  for i = 0 to n - 1 do
    if f i then unsafe_set_bit data i true
  done;
  { data; len = n }

let of_bool_list l =
  let arr = Array.of_list l in
  init (Array.length arr) (fun i -> arr.(i))

let to_bool_list t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (get t i :: acc) in
  go (t.len - 1) []

(* Clear the padding bits of the last byte, so structural equality
   remains byte equality. *)
let clear_padding data len =
  if len land 7 <> 0 then begin
    let last = bytes_for_bits len - 1 in
    let keep = 0xFF lsl (8 - (len land 7)) land 0xFF in
    Bytes.unsafe_set data last
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get data last) land keep))
  end

let of_bytes_bits b len =
  if len < 0 || len > 8 * Bytes.length b then invalid_arg "Bitseq.of_bytes_bits";
  let data = Bytes.sub b 0 (bytes_for_bits len) in
  clear_padding data len;
  { data; len }

let unsafe_of_bytes_bits b len =
  if len < 0 || Bytes.length b <> bytes_for_bits len then
    invalid_arg "Bitseq.unsafe_of_bytes_bits";
  clear_padding b len;
  { data = b; len }

(* No operation mutates [data] once a value is built, so strings and
   sequences can share their bytes. *)
let of_string s = { data = Bytes.unsafe_of_string s; len = 8 * String.length s }

let to_string t = Bytes.unsafe_to_string t.data

let of_bits s =
  init (String.length s) (fun i ->
      match s.[i] with
      | '0' -> false
      | '1' -> true
      | _ -> invalid_arg "Bitseq.of_bits")

let to_bits t = String.init t.len (fun i -> if get t i then '1' else '0')

(* The 8 bits of [data] starting at bit [pos], MSB first; bits past the
   end of [data] read as zero. *)
let byte_of data pos =
  let i = pos lsr 3 and s = pos land 7 in
  let n = Bytes.length data in
  let hi = if i < n then Char.code (Bytes.unsafe_get data i) else 0 in
  if s = 0 then hi
  else
    let lo = if i + 1 < n then Char.code (Bytes.unsafe_get data (i + 1)) else 0 in
    (((hi lsl 8) lor lo) lsr (8 - s)) land 0xFF

let byte_at t pos = byte_of t.data pos

let or_byte data i v =
  Bytes.unsafe_set data i (Char.unsafe_chr (Char.code (Bytes.unsafe_get data i) lor v))

(* [blit_into src spos dst dpos len] writes bits [spos, spos + len) of
   [src] to bits [dpos, dpos + len) of [dst], which must be zero there.
   Whole bytes move at once; an unaligned destination takes each source
   byte as two shifted halves. Bits of [dst] outside the range are
   untouched, so the padding of a fresh buffer stays zero. *)
let blit_into src spos dst dpos len =
  if spos land 7 = 0 && dpos land 7 = 0 then begin
    let whole = len lsr 3 in
    Bytes.blit src.data (spos lsr 3) dst (dpos lsr 3) whole;
    let r = len land 7 in
    if r > 0 then
      or_byte dst ((dpos lsr 3) + whole)
        (byte_of src.data (spos + (8 * whole)) land (0xFF lsl (8 - r)) land 0xFF)
  end
  else begin
    let k = ref 0 in
    while !k < len do
      let take = Int.min 8 (len - !k) in
      let b = byte_of src.data (spos + !k) land (0xFF lsl (8 - take)) land 0xFF in
      let d = dpos + !k in
      let i = d lsr 3 and s = d land 7 in
      or_byte dst i (b lsr s);
      let spill = (b lsl (8 - s)) land 0xFF in
      if spill <> 0 then or_byte dst (i + 1) spill;
      k := !k + 8
    done
  end

let concat l =
  let len = List.fold_left (fun acc t -> acc + t.len) 0 l in
  let data = Bytes.make (bytes_for_bits len) '\000' in
  ignore
    (List.fold_left
       (fun pos t ->
         blit_into t 0 data pos t.len;
         pos + t.len)
       0 l);
  { data; len }

let append a b = concat [ a; b ]

let cons bit t = init (t.len + 1) (fun i -> if i = 0 then bit else get t (i - 1))

let snoc t bit = init (t.len + 1) (fun i -> if i < t.len then get t i else bit)

let sub t pos len =
  if pos < 0 || len < 0 || pos + len > t.len then invalid_arg "Bitseq.sub";
  let data = Bytes.make (bytes_for_bits len) '\000' in
  blit_into t pos data 0 len;
  { data; len }

let equal a b = a.len = b.len && Bytes.equal a.data b.data

let compare a b =
  let c = Stdlib.compare a.len b.len in
  if c <> 0 then c else Bytes.compare a.data b.data

let is_prefix ~prefix t =
  prefix.len <= t.len
  &&
  let rec go i = i >= prefix.len || (get prefix i = get t i && go (i + 1)) in
  go 0

(* Patterns up to this many bits fit a rolling window of the last
   [window_bits + 7] bits in one [int]. *)
let window_bits = Sys.int_size - 7

(* The window holds the stream up to the end of the byte last read, so
   the 8 candidate ends within that byte are 8 shifts of one word. Bits
   before [from] may sit in the window but never start a match. *)
let find_window ~from ~pattern t =
  let m = pattern.len in
  let p = ref 0 in
  for i = 0 to bytes_for_bits m - 1 do
    p := (!p lsl 8) lor Char.code (Bytes.unsafe_get pattern.data i)
  done;
  let p = !p lsr ((8 * bytes_for_bits m) - m) in
  let pmask = (1 lsl m) - 1 in
  let first_end = from + m - 1 and last_end = t.len - 1 in
  let w = ref 0 and found = ref (-1) and byte = ref (from lsr 3) in
  let last_byte = last_end lsr 3 in
  while !found < 0 && !byte <= last_byte do
    let b = !byte in
    w := (!w lsl 8) lor Char.code (Bytes.unsafe_get t.data b);
    let w = !w in
    let e_min = 8 * b and e_max = (8 * b) + 7 in
    if first_end <= e_min && e_max <= last_end then begin
      (* every end in the byte is a candidate: the common case, unrolled *)
      if (w lsr 7) land pmask = p then found := e_min - m + 1
      else if (w lsr 6) land pmask = p then found := e_min - m + 2
      else if (w lsr 5) land pmask = p then found := e_min - m + 3
      else if (w lsr 4) land pmask = p then found := e_min - m + 4
      else if (w lsr 3) land pmask = p then found := e_min - m + 5
      else if (w lsr 2) land pmask = p then found := e_min - m + 6
      else if (w lsr 1) land pmask = p then found := e_min - m + 7
      else if w land pmask = p then found := e_min - m + 8
    end
    else begin
      let e = ref (Int.max e_min first_end) and e_max = Int.min e_max last_end in
      while !found < 0 && !e <= e_max do
        if (w lsr ((8 * b) + 7 - !e)) land pmask = p then found := !e - m + 1;
        incr e
      done
    end;
    incr byte
  done;
  if !found < 0 then None else Some !found

let find_generic ~from ~pattern t =
  let rec matches_at pos i =
    i >= pattern.len || (get pattern i = get t (pos + i) && matches_at pos (i + 1))
  in
  let rec search pos =
    if pos > t.len - pattern.len then None
    else if matches_at pos 0 then Some pos
    else search (pos + 1)
  in
  search from

let find_sub ?(from = 0) ~pattern t =
  if from < 0 || from > t.len then invalid_arg "Bitseq.find_sub";
  if pattern.len = 0 then Some from
  else if pattern.len > t.len - from then None
  else if pattern.len <= window_bits then find_window ~from ~pattern t
  else find_generic ~from ~pattern t

let popcount t =
  let n = ref 0 in
  for i = 0 to t.len - 1 do
    if get t i then incr n
  done;
  !n

let map f t = init t.len (fun i -> f (get t i))

let flip t i =
  if i < 0 || i >= t.len then invalid_arg "Bitseq.flip";
  let data = Bytes.copy t.data in
  Bytes.unsafe_set data (i lsr 3)
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get data (i lsr 3)) lxor (0x80 lsr (i land 7))));
  { data; len = t.len }

let random rng n = init n (fun _ -> Rng.bool rng)

let fold_left f acc t =
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := f !acc (get t i)
  done;
  !acc

let iteri f t =
  for i = 0 to t.len - 1 do
    f i (get t i)
  done

let rev t = init t.len (fun i -> get t (t.len - 1 - i))

let repeat t k = if k <= 0 then empty else concat (List.init k (fun _ -> t))

let pp fmt t = Format.pp_print_string fmt (to_bits t)
