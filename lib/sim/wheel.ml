(* Hierarchical timing wheel: the engine's default event queue.

   RTO, delayed-ack and ARQ timers are overwhelmingly scheduled and then
   cancelled before they fire; a binary heap pays O(log n) to admit every
   one of them and scans dead entries on the way out. The wheel admits a
   near-horizon timer in O(1): two levels of [slots] buckets of [tick]
   seconds each (L0 covers one window of [slots] ticks, L1 one window of
   [slots] windows), a small "front" heap holding the already-reached
   ticks in exact order, and an overflow heap for timers beyond L1's
   horizon (with the 1 ms tick and 1024 slots: ~1 s and ~17 min).

   Ordering argument: the tick of an event, trunc(time / tick), is
   monotone in its time, so bucketing by tick can never invert the order
   of events in different ticks — float rounding can only place a
   boundary event one tick late, which delays when its bucket drains but
   not its position relative to other events. Within a tick (and in the
   overflow), the (time, insertion-seq) heaps restore the engine's exact
   firing order, so the wheel is observationally identical to the
   reference heap.

   Cancellation is lazy, exactly as in the heap backend: a dead event
   stays where it is, counted by the shared [dead_in_heap] ref, until it
   is swept out by a drain, a purge or a [compact]. *)

type event = {
  time : float;
  seq : int;
  mutable fn : unit -> unit;
  mutable dead : bool;
  (* Shared with the owning engine so [Engine.cancel] (which only sees
     the handle) can keep the accounting straight. *)
  live : int ref;
  dead_in_heap : int ref;
}

(* The event no queue holds: what [peek], [pop] and the heaps' [top]
   and [pop] return when there is none, and the filler of every unused
   heap slot (so a heap retains no event it no longer queues). *)
let none =
  { time = 0.; seq = -1; fn = ignore; dead = true; live = ref 0;
    dead_in_heap = ref 0 }

(* A binary min-heap on (time, seq): the front and overflow queues, and
   the engine's reference backend. Each entry's key sits beside it in two
   flat arrays, [times] unboxed, so a comparison reads no event record,
   and a sift moves a hole and writes the sifted entry once. Push, pop and
   compact compare as the swap-based heap in test/heap_oracle.ml does, so
   both lay their entries out alike. *)
module Eheap = struct
  type t = {
    mutable times : float array;
    mutable seqs : int array;
    mutable evs : event array;
    mutable size : int;
  }

  let create ?(capacity = 16) () =
    let n = max 1 capacity in
    { times = Array.make n 0.; seqs = Array.make n 0; evs = Array.make n none;
      size = 0 }

  let size h = h.size

  let[@inline] set h i time seq ev =
    Array.unsafe_set h.times i time;
    Array.unsafe_set h.seqs i seq;
    Array.unsafe_set h.evs i ev

  let[@inline] move h ~src ~dst =
    set h dst (Array.unsafe_get h.times src) (Array.unsafe_get h.seqs src)
      (Array.unsafe_get h.evs src)

  (* The entry at [i] moves towards the root while it is earlier than
     its parent. *)
  let sift_up h i =
    let time = Array.unsafe_get h.times i and seq = Array.unsafe_get h.seqs i in
    let ev = Array.unsafe_get h.evs i in
    let hole = ref i and moving = ref true in
    while !moving && !hole > 0 do
      let p = (!hole - 1) / 2 in
      let tp = Array.unsafe_get h.times p in
      if time < tp || (time = tp && seq < Array.unsafe_get h.seqs p) then begin
        move h ~src:p ~dst:!hole;
        hole := p
      end
      else moving := false
    done;
    set h !hole time seq ev

  (* The entry at [i] moves towards the leaves while a child is earlier:
     the left child if it is earlier than the entry, then the right one
     if it is earlier than the earliest of those two. *)
  let sift_down h i =
    let time = Array.unsafe_get h.times i and seq = Array.unsafe_get h.seqs i in
    let ev = Array.unsafe_get h.evs i in
    let hole = ref i and moving = ref true in
    while !moving do
      let l = (2 * !hole) + 1 in
      let r = l + 1 in
      let c =
        if l < h.size
           && (let tl = Array.unsafe_get h.times l in
               tl < time || (tl = time && Array.unsafe_get h.seqs l < seq))
        then
          if r < h.size
             && (let tr = Array.unsafe_get h.times r
                 and tl = Array.unsafe_get h.times l in
                 tr < tl
                 || (tr = tl && Array.unsafe_get h.seqs r < Array.unsafe_get h.seqs l))
          then r
          else l
        else if r < h.size
                && (let tr = Array.unsafe_get h.times r in
                    tr < time || (tr = time && Array.unsafe_get h.seqs r < seq))
        then r
        else -1
      in
      if c < 0 then moving := false
      else begin
        move h ~src:c ~dst:!hole;
        hole := c
      end
    done;
    set h !hole time seq ev

  let push h ev =
    let n = Array.length h.evs in
    if h.size = n then begin
      let times = Array.make (2 * n) 0. and seqs = Array.make (2 * n) 0 in
      let evs = Array.make (2 * n) none in
      Array.blit h.times 0 times 0 n;
      Array.blit h.seqs 0 seqs 0 n;
      Array.blit h.evs 0 evs 0 n;
      h.times <- times;
      h.seqs <- seqs;
      h.evs <- evs
    end;
    set h h.size ev.time ev.seq ev;
    h.size <- h.size + 1;
    sift_up h (h.size - 1)

  (* Slot 0 holds [none] when the heap is empty. *)
  let top h = Array.unsafe_get h.evs 0

  let pop h =
    let top = Array.unsafe_get h.evs 0 in
    if h.size > 0 then begin
      let last = h.size - 1 in
      h.size <- last;
      move h ~src:last ~dst:0;
      Array.unsafe_set h.evs last none;
      if last > 0 then sift_down h 0
    end;
    top

  let iter h f =
    for i = 0 to h.size - 1 do
      f h.evs.(i)
    done

  (* Drop dead entries in place and re-establish the heap property. *)
  let compact h ~on_drop =
    let kept = ref 0 in
    for i = 0 to h.size - 1 do
      let ev = h.evs.(i) in
      if ev.dead then on_drop ev
      else begin
        move h ~src:i ~dst:!kept;
        incr kept
      end
    done;
    for i = !kept to h.size - 1 do
      h.evs.(i) <- none
    done;
    h.size <- !kept;
    for i = (h.size / 2) - 1 downto 0 do
      sift_down h i
    done
end

(* Seconds per tick, and buckets per level. *)
let tick = 1e-3
let slots = 1024

type t = {
  l0 : event list array;      (* ticks of the current window *)
  l1 : event list array;      (* one bucket per window, the next [n - 1] *)
  mutable l0_count : int;     (* entries (dead included) in l0 / l1 *)
  mutable l1_count : int;
  front : Eheap.t;            (* reached ticks, exact (time, seq) order *)
  overflow : Eheap.t;         (* beyond the L1 horizon *)
  mutable w0 : int;           (* current window number *)
  mutable cur : int;          (* highest tick drained into [front] *)
  mutable total : int;        (* entries (dead included) everywhere *)
  mutable compactions : int;
}

let create () =
  { l0 = Array.make slots []; l1 = Array.make slots [];
    l0_count = 0; l1_count = 0; front = Eheap.create ();
    overflow = Eheap.create (); w0 = 0; cur = -1; total = 0; compactions = 0 }

(* Absolute tick of a virtual time. Monotone in [time] (see the header
   comment). Times past ~1e12 virtual seconds pin to [max_int] so the
   window arithmetic below never overflows; such events live in the
   overflow heap and are served straight from it once everything nearer
   has fired. *)
let tick_of time =
  let q = time /. tick in
  if q >= 1e15 then max_int else int_of_float q

let total t = t.total
let compactions t = t.compactions

let drop_dead t ev =
  t.total <- t.total - 1;
  decr ev.dead_in_heap

let add t ev =
  t.total <- t.total + 1;
  let k = tick_of ev.time in
  if k <= t.cur then Eheap.push t.front ev
  else begin
    let w = k / slots in
    if w = t.w0 then begin
      let s = k mod slots in
      t.l0.(s) <- ev :: t.l0.(s);
      t.l0_count <- t.l0_count + 1
    end
    else if w - t.w0 < slots then begin
      let s = w mod slots in
      t.l1.(s) <- ev :: t.l1.(s);
      t.l1_count <- t.l1_count + 1
    end
    else Eheap.push t.overflow ev
  end

(* Move [evs], an l0 slot's events, into the front heap; dead entries
   are swept out here instead. *)
let rec to_front t = function
  | [] -> ()
  | ev :: evs ->
      t.l0_count <- t.l0_count - 1;
      if ev.dead then drop_dead t ev else Eheap.push t.front ev;
      to_front t evs

(* Drain the l0 slot holding tick [cur]. *)
let drain_l0 t s =
  let evs = t.l0.(s) in
  t.l0.(s) <- [];
  to_front t evs

(* Spread [evs], an l1 bucket's events, over the l0 tick slots. *)
let rec to_l0 t = function
  | [] -> ()
  | ev :: evs ->
      t.l1_count <- t.l1_count - 1;
      if ev.dead then drop_dead t ev
      else begin
        let k = tick_of ev.time in
        t.l0.(k mod slots) <- ev :: t.l0.(k mod slots);
        t.l0_count <- t.l0_count + 1
      end;
      to_l0 t evs

(* Entering window [w]: cascade its l1 bucket. *)
let cascade t w =
  let s = w mod slots in
  let evs = t.l1.(s) in
  t.l1.(s) <- [];
  to_l0 t evs

(* The overflow heap's earliest live entry ([none] if there is none),
   dead tops swept out on the way. *)
let rec overflow_top t =
  let ev = Eheap.top t.overflow in
  if Eheap.size t.overflow > 0 && ev.dead then begin
    ignore (Eheap.pop t.overflow);
    drop_dead t ev;
    overflow_top t
  end
  else ev

let rec purge_front t =
  let ev = Eheap.top t.front in
  if Eheap.size t.front > 0 && ev.dead then begin
    ignore (Eheap.pop t.front);
    drop_dead t ev;
    purge_front t
  end

(* Jump the cursor to the start of window [w] (which must be ahead of
   [w0]): pull newly-near overflow entries into the wheels, then cascade
   the window's l1 bucket. *)
let enter_window t w =
  t.w0 <- w;
  t.cur <- (w * slots) - 1;
  let continue = ref true in
  while !continue do
    let top = overflow_top t in
    if top != none && (tick_of top.time / slots) - w < slots then begin
      ignore (Eheap.pop t.overflow);
      t.total <- t.total - 1;
      (* [add] re-counts it and routes it to l0 or l1. *)
      add t top
    end
    else continue := false
  done;
  cascade t w

(* Advance the cursor until the front heap holds a live event, the
   horizon tick is passed, or the queue is exhausted. The cursor never
   moves past [htick], so a bounded [run ~until] cannot leave the wheel
   degenerated for events scheduled after it returns. *)
let advance t htick =
  let continue = ref true in
  while !continue do
    purge_front t;
    if Eheap.size t.front > 0 || t.cur >= htick then continue := false
    else if t.l0_count > 0 then begin
      let wend = (t.w0 + 1) * slots in
      let stop = min (wend - 1) htick in
      let k = ref (t.cur + 1) and found = ref false in
      while (not !found) && !k <= stop do
        if t.l0.(!k mod slots) <> [] then found := true else incr k
      done;
      if !found then begin
        t.cur <- !k;
        drain_l0 t (!k mod slots)
      end
      else begin
        (* l0 only holds ticks of the current window, so an empty scan
           means the horizon cut it short. *)
        assert (stop = htick);
        t.cur <- htick
      end
    end
    else if t.l1_count > 0 then begin
      let d = ref 1 in
      while !d < slots && t.l1.((t.w0 + !d) mod slots) = [] do incr d done;
      let w = t.w0 + !d in
      if !d >= slots || w * slots > htick then continue := false
      else enter_window t w
    end
    else begin
      let top = overflow_top t in
      if top == none then continue := false
      else begin
        let k = tick_of top.time in
        if k > htick || k = max_int then continue := false
        else enter_window t (k / slots)
      end
    end
  done

(* The earliest event whose tick is within [horizon]'s tick (it may still
   have [time > horizon]: same tick, later in the slot — the engine
   compares times). [none] means no event at or before that tick. When
   the wheels are empty the overflow top is the global minimum and is
   served in place, covering the beyond-arithmetic-range tail. *)
let peek t ~horizon =
  advance t (tick_of horizon);
  if Eheap.size t.front > 0 then Eheap.top t.front
  else if t.l0_count = 0 && t.l1_count = 0 then overflow_top t
  else none

(* Remove the event the last [peek] returned. *)
let pop t =
  purge_front t;
  if Eheap.size t.front > 0 then begin
    t.total <- t.total - 1;
    Eheap.pop t.front
  end
  else if overflow_top t == none then none
  else begin
    t.total <- t.total - 1;
    Eheap.pop t.overflow
  end

let iter t f =
  Eheap.iter t.front f;
  Array.iter (fun l -> List.iter f l) t.l0;
  Array.iter (fun l -> List.iter f l) t.l1;
  Eheap.iter t.overflow f

(* A slot's live events in their order, counting each into [kept]; dead
   ones are dropped. A slot whose events all live comes back as is, so a
   sweep conses only in front of an event it drops. *)
let rec live_of t kept = function
  | [] -> []
  | ev :: rest as slot ->
      if ev.dead then begin
        drop_dead t ev;
        live_of t kept rest
      end
      else begin
        incr kept;
        let rest' = live_of t kept rest in
        if rest' == rest then slot else ev :: rest'
      end

(* Sweep dead entries out of every structure (the >50%-dead trigger lives
   in the engine, shared with the heap backend). No closure is built per
   slot, and an empty slot costs one load. *)
let sweep t buckets =
  let kept = ref 0 in
  for i = 0 to Array.length buckets - 1 do
    match buckets.(i) with
    | [] -> ()
    | slot -> buckets.(i) <- live_of t kept slot
  done;
  !kept

let compact t =
  t.l0_count <- sweep t t.l0;
  t.l1_count <- sweep t t.l1;
  let drop ev = drop_dead t ev in
  Eheap.compact t.front ~on_drop:drop;
  Eheap.compact t.overflow ~on_drop:drop;
  t.compactions <- t.compactions + 1
