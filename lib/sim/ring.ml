type 'a t = {
  slots : 'a array;
  blank : 'a;
  mutable head : int; (* slot of the oldest retained record *)
  mutable len : int;
  mutable recorded : int;
}

let create ~capacity blank =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  { slots = Array.make capacity blank; blank; head = 0; len = 0; recorded = 0 }

let length t = t.len
let recorded t = t.recorded
let dropped t = t.recorded - t.len

(* The [i]-th oldest retained record. *)
let get t i = t.slots.((t.head + i) mod Array.length t.slots)

let push t x =
  let cap = Array.length t.slots in
  if t.len = cap then begin
    t.slots.(t.head) <- x;
    t.head <- (t.head + 1) mod cap
  end
  else begin
    t.slots.((t.head + t.len) mod cap) <- x;
    t.len <- t.len + 1
  end;
  t.recorded <- t.recorded + 1

let to_list t = List.init t.len (get t)

let last t n =
  let n = max 0 (min n t.len) in
  List.init n (fun i -> get t (t.len - n + i))

let newest t = if t.len = 0 then None else Some (get t (t.len - 1))

let find_newest t p =
  let rec scan i =
    if i < 0 then None
    else
      let x = get t i in
      if p x then Some x else scan (i - 1)
  in
  scan (t.len - 1)

let clear t =
  Array.fill t.slots 0 (Array.length t.slots) t.blank;
  t.head <- 0;
  t.len <- 0;
  t.recorded <- 0
