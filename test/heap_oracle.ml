(* Reference oracle for [Sim.Wheel.Eheap]: the binary heap it replaced,
   kept as it was (an array of events compared through their boxed
   [time] and [seq] fields, sifted by swapping neighbours, an option per
   peek and pop) because its two sifts read as the heap property itself.
   A property test drives both heaps through the same operations and
   holds the library's heap to this one, pop for pop. *)

open Sim.Wheel

let earlier a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

type t = { mutable arr : event array; mutable size : int }

let create ?(capacity = 16) () = { arr = Array.make capacity none; size = 0 }
let size h = h.size

let swap h i j =
  let tmp = h.arr.(i) in
  h.arr.(i) <- h.arr.(j);
  h.arr.(j) <- tmp

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if earlier h.arr.(i) h.arr.(parent) then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.size && earlier h.arr.(l) h.arr.(!smallest) then smallest := l;
  if r < h.size && earlier h.arr.(r) h.arr.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap h i !smallest;
    sift_down h !smallest
  end

let push h ev =
  if h.size = Array.length h.arr then begin
    let bigger = Array.make (2 * h.size) none in
    Array.blit h.arr 0 bigger 0 h.size;
    h.arr <- bigger
  end;
  h.arr.(h.size) <- ev;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let peek h = if h.size = 0 then None else Some h.arr.(0)

let pop h =
  if h.size = 0 then None
  else begin
    let top = h.arr.(0) in
    h.size <- h.size - 1;
    h.arr.(0) <- h.arr.(h.size);
    h.arr.(h.size) <- none;
    if h.size > 0 then sift_down h 0;
    Some top
  end

let iter h f =
  for i = 0 to h.size - 1 do
    f h.arr.(i)
  done

(* Drop dead entries in place and re-establish the heap property. *)
let compact h ~on_drop =
  let kept = ref 0 in
  for i = 0 to h.size - 1 do
    if h.arr.(i).dead then on_drop h.arr.(i)
    else begin
      h.arr.(!kept) <- h.arr.(i);
      incr kept
    end
  done;
  for i = !kept to h.size - 1 do
    h.arr.(i) <- none
  done;
  h.size <- !kept;
  for i = (h.size / 2) - 1 downto 0 do
    sift_down h i
  done
