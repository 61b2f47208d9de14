(* splitmix64. The 64-bit state lives unboxed in 8 bytes: every draw
   below inlines [next], whose intermediate words stay in registers, so a
   draw allocates nothing. *)
type t = Bytes.t

let golden = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let copy t = Bytes.copy t

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_le t 0) golden in
  Bytes.set_int64_le t 0 s;
  mix s

let int64 t = next t

let split t = of_state (next t)

let bits t n =
  assert (n >= 0 && n <= 62);
  if n = 0 then 0
  else Int64.to_int (Int64.shift_right_logical (next t) (64 - n))

(* Rejection sampling to avoid modulo bias. *)
let rec below t bound =
  let r = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  let v = r mod bound in
  if r - v + (bound - 1) < 0 then below t bound else v

(* A power-of-two bound divides 2^62, so [below] never rejects there and
   its [r mod bound] is [r land (bound - 1)]. *)
let int t bound =
  assert (bound > 0);
  if bound land (bound - 1) = 0 then
    Int64.to_int (Int64.shift_right_logical (next t) 2) land (bound - 1)
  else below t bound

(* Byte [i] is what [int t 256] would draw: bits 2–9 of one draw. The
   state stays in a local over the loop and is stored once. *)
let bytes t n =
  let b = Bytes.create n in
  let s = ref (Bytes.get_int64_le t 0) in
  for i = 0 to n - 1 do
    s := Int64.add !s golden;
    Bytes.unsafe_set b i
      (Char.unsafe_chr (Int64.to_int (Int64.shift_right_logical (mix !s) 2) land 0xFF))
  done;
  Bytes.set_int64_le t 0 !s;
  Bytes.unsafe_to_string b

let[@inline] float t =
  let r = Int64.to_int (Int64.shift_right_logical (next t) 11) in
  Float.of_int r *. 0x1p-53

let bool t = Int64.logand (next t) 1L = 1L

let coin t p = float t < p

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let exponential t rate =
  assert (rate > 0.);
  -.log1p (-.float t) /. rate
