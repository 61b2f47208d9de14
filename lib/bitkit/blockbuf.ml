(* Blocks in order: [blocks.(0 .. nblocks - 1)] are allocated, those
   before [cur] are full, block [cur] holds [fill] bytes and the ones
   after it (kept by a [clear]) are empty. [cur = nblocks] means every
   block is full, so [length = capacity] whenever a block is added. *)

external get64u_b : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external get64u_s : string -> int -> int64 = "%caml_string_get64u"

let first_block = 256

type t = {
  mutable blocks : Bytes.t array;
  mutable nblocks : int;
  mutable capacity : int;  (* bytes in all blocks *)
  mutable cur : int;
  mutable fill : int;
  mutable length : int;
}

let create () =
  { blocks = [||]; nblocks = 0; capacity = 0; cur = 0; fill = 0; length = 0 }

let length t = t.length

let[@inline] imin (a : int) b = if a < b then a else b

(* Add the block after the last one, for [need] bytes in all. Past the
   first, a block doubles the capacity, or more if [need] asks for it:
   all blocks are full when one is added, so it is at least as large as
   every byte stored so far, and the capacity stays a power-of-two
   multiple of [first_block]. *)
let grow t need =
  let size =
    if t.nblocks = 0 then first_block
    else begin
      let target = ref (2 * t.capacity) in
      while !target < need do
        target := 2 * !target
      done;
      !target - t.capacity
    end
  in
  if t.nblocks = Array.length t.blocks then begin
    let bigger = Array.make (if t.nblocks = 0 then 8 else 2 * t.nblocks) Bytes.empty in
    Array.blit t.blocks 0 bigger 0 t.nblocks;
    t.blocks <- bigger
  end;
  t.blocks.(t.nblocks) <- Bytes.create size;
  t.nblocks <- t.nblocks + 1;
  t.capacity <- t.capacity + size

let add t (sl : Slice.t) =
  Slice.note_copy sl.len;
  let pos = ref sl.off and left = ref sl.len in
  while !left > 0 do
    if t.cur = t.nblocks then grow t (t.length + !left);
    let blk = Array.unsafe_get t.blocks t.cur in
    let room = Bytes.length blk - t.fill in
    let n = imin room !left in
    Bytes.unsafe_blit_string sl.base !pos blk t.fill n;
    pos := !pos + n;
    left := !left - n;
    t.length <- t.length + n;
    if n = room then begin
      t.cur <- t.cur + 1;
      t.fill <- 0
    end
    else t.fill <- t.fill + n
  done

let contents t =
  let out = Bytes.create t.length in
  let pos = ref 0 and i = ref 0 in
  while !pos < t.length do
    let blk = Array.unsafe_get t.blocks !i in
    let n = imin (Bytes.length blk) (t.length - !pos) in
    Bytes.blit blk 0 out !pos n;
    pos := !pos + n;
    incr i
  done;
  Bytes.unsafe_to_string out

(* The first [len] bytes of [blk] against [s] from [pos], a word at a
   time and then byte by byte; the caller keeps both ranges in bounds. *)
let block_equal blk s pos len =
  let i = ref 0 and eq = ref true in
  while !eq && !i + 8 <= len do
    if get64u_b blk !i <> get64u_s s (pos + !i) then eq := false else i := !i + 8
  done;
  while !eq && !i < len do
    if Bytes.unsafe_get blk !i <> String.unsafe_get s (pos + !i) then eq := false
    else incr i
  done;
  !eq

let equal_string t s =
  String.length s = t.length
  &&
  let pos = ref 0 and i = ref 0 and eq = ref true in
  while !eq && !pos < t.length do
    let blk = Array.unsafe_get t.blocks !i in
    let n = imin (Bytes.length blk) (t.length - !pos) in
    if block_equal blk s !pos n then begin
      pos := !pos + n;
      incr i
    end
    else eq := false
  done;
  !eq

let clear t =
  t.cur <- 0;
  t.fill <- 0;
  t.length <- 0
