(* The scheduler behind every experiment: virtual time, (time,
   insertion-seq) firing order, seeded randomness. Two interchangeable
   queue backends share the event representation and the lazy-delete
   cancellation accounting:

   - [`Wheel] (default): the hierarchical timing wheel — O(1) schedule
     and cancel for the near horizon, where RTO/delayed-ack/ARQ timers
     overwhelmingly live and die.
   - [`Heap]: one binary heap ([Wheel.Eheap], also the wheel's front and
     overflow queue), kept as the reference the equivalence property
     test drives in lockstep against the wheel.

   Both fire the exact same (time, seq) stream, so seeded runs are
   bit-identical across backends. *)

type event = Wheel.event = {
  time : float;
  seq : int;
  mutable fn : unit -> unit;
  mutable dead : bool;
  (* Shared with the owning engine so [cancel] (which only sees the
     handle) can keep the accounting straight. *)
  live : int ref;
  dead_in_heap : int ref;
}

type handle = event

type backend = [ `Heap | `Wheel ]

(* The reference backend: one binary heap, dead tops purged lazily. *)
module Heapq = struct
  type t = { heap : Wheel.Eheap.t; mutable compactions : int }

  let create () = { heap = Wheel.Eheap.create ~capacity:64 (); compactions = 0 }

  let rec purge q =
    let ev = Wheel.Eheap.top q.heap in
    if Wheel.Eheap.size q.heap > 0 && ev.dead then begin
      ignore (Wheel.Eheap.pop q.heap);
      decr ev.dead_in_heap;
      purge q
    end

  (* Drop cancelled entries and re-establish the heap property in place.
     Long soaks cancel far more timers than ever fire (every ack cancels
     a retransmission timer), so without this the heap is mostly garbage
     and [pending] scans it all. *)
  let compact q =
    Wheel.Eheap.compact q.heap ~on_drop:(fun ev -> decr ev.dead_in_heap);
    q.compactions <- q.compactions + 1
end

type queue = Q_heap of Heapq.t | Q_wheel of Wheel.t

type t = {
  id : int;
  queue : queue;
  mutable clock : float;
  mutable next_seq : int;
  mutable fired : int;
  live : int ref;
  dead_in_heap : int ref;
  random : Bitkit.Rng.t;
  (* Run after each fired event's closure returns, when no action list is
     mid-apply anywhere — the safe point buffer pools drain deferred
     releases at. Appended once at setup; purely virtual-time-neutral
     (hooks schedule nothing), so they cannot perturb determinism. *)
  mutable end_hooks : (unit -> unit) list;
}

let made = Atomic.make 0

let create ?(seed = 42) ?(backend = `Wheel) () =
  { id = Atomic.fetch_and_add made 1;
    queue =
      (match backend with
      | `Heap -> Q_heap (Heapq.create ())
      | `Wheel -> Q_wheel (Wheel.create ()));
    clock = 0.; next_seq = 0; fired = 0; live = ref 0; dead_in_heap = ref 0;
    random = Bitkit.Rng.create seed; end_hooks = [] }

let after_event t hook = t.end_hooks <- t.end_hooks @ [ hook ]

let id t = t.id
let backend t = match t.queue with Q_heap _ -> `Heap | Q_wheel _ -> `Wheel
let now t = t.clock
let rng t = t.random

let queue_total t =
  match t.queue with
  | Q_heap q -> Wheel.Eheap.size q.Heapq.heap
  | Q_wheel w -> Wheel.total w

let maybe_compact t =
  if queue_total t > 64 && 2 * !(t.dead_in_heap) > queue_total t then
    match t.queue with
    | Q_heap q -> Heapq.compact q
    | Q_wheel w -> Wheel.compact w

let at t ~time fn =
  if time < t.clock then invalid_arg "Engine.at: time in the past";
  let ev =
    { time; seq = t.next_seq; fn; dead = false; live = t.live;
      dead_in_heap = t.dead_in_heap }
  in
  t.next_seq <- t.next_seq + 1;
  incr t.live;
  (match t.queue with
  | Q_heap q -> Wheel.Eheap.push q.Heapq.heap ev
  | Q_wheel w -> Wheel.add w ev);
  (* [cancel] can't reach the engine through the handle, so dead-entry
     pressure is relieved on the next schedule (or [pending] scan). *)
  maybe_compact t;
  ev

let schedule t ~after fn =
  if after < 0. then invalid_arg "Engine.schedule: negative delay";
  at t ~time:(t.clock +. after) fn

let cancel ev =
  if not ev.dead then begin
    ev.dead <- true;
    (* Drop the closure so cancelled timers don't retain whatever state
       they captured for the rest of a long soak. *)
    ev.fn <- ignore;
    decr ev.live;
    incr ev.dead_in_heap
  end

let cancelled ev = ev.dead

(* The earliest live event, left in place ([Wheel.none] when there is
   none, so a dequeue allocates no option): [horizon] bounds how far the
   wheel's cursor advances (the heap ignores it). The returned event may
   still have [time > horizon] — callers compare. *)
let peek t ~horizon =
  (* [cancel] can't reach the engine through the handle, so dead-entry
     pressure built up by cancel storms is also relieved here, on the
     next dequeue. *)
  maybe_compact t;
  match t.queue with
  | Q_heap q ->
      Heapq.purge q;
      Wheel.Eheap.top q.Heapq.heap
  | Q_wheel w -> Wheel.peek w ~horizon

let drop_top t =
  match t.queue with
  | Q_heap q -> ignore (Wheel.Eheap.pop q.Heapq.heap)
  | Q_wheel w -> ignore (Wheel.pop w)

(* Fire [ev]: mark it dead first so a late [cancel] on a kept handle is a
   no-op instead of corrupting the accounting, and drop the closure so the
   handle does not retain it. *)
let fire t ev =
  let f = ev.fn in
  ev.dead <- true;
  ev.fn <- ignore;
  t.clock <- ev.time;
  t.fired <- t.fired + 1;
  decr t.live;
  f ();
  match t.end_hooks with
  | [] -> ()
  | hooks -> List.iter (fun h -> h ()) hooks

(* Timestamp of the earliest live event, event left queued. Used by the
   shard round protocol to compute the global safe window; the wheel's
   cursor may advance up to that event, which is harmless — the wheel
   routes insertions at or before its cursor through the front heap,
   preserving exact (time, seq) order. *)
let next_time t =
  let ev = peek t ~horizon:infinity in
  if ev == Wheel.none then None else Some ev.time

let step t =
  let ev = peek t ~horizon:infinity in
  ev != Wheel.none
  && begin
       drop_top t;
       fire t ev;
       true
     end

let run ?until ?max_events t =
  let budget = ref (match max_events with Some n -> n | None -> max_int) in
  let horizon = match until with Some u -> u | None -> infinity in
  let continue = ref true in
  while !continue && !budget > 0 do
    let ev = peek t ~horizon in
    if ev == Wheel.none then begin
      (* "Run until T" leaves the clock at T even if nothing is left to
         do, so callers polling in fixed virtual-time slices always make
         progress. *)
      if Float.is_finite horizon && horizon > t.clock then t.clock <- horizon;
      continue := false
    end
    else if ev.time > horizon then begin
      (* Leave it queued: the caller may resume later. *)
      t.clock <- horizon;
      continue := false
    end
    else begin
      drop_top t;
      decr budget;
      fire t ev
    end
  done

(* O(1): the cancellation accounting already tracks liveness exactly;
   [pending_scan] remains as the O(total) audit the property tests
   cross-check it against after randomized cancel storms. *)
let pending t = !(t.live)

let pending_scan t =
  maybe_compact t;
  let n = ref 0 in
  let count ev = if not ev.dead then incr n in
  (match t.queue with
  | Q_heap q -> Wheel.Eheap.iter q.Heapq.heap count
  | Q_wheel w -> Wheel.iter w count);
  !n

let compactions t =
  match t.queue with
  | Q_heap q -> q.Heapq.compactions
  | Q_wheel w -> Wheel.compactions w

let events_fired t = t.fired
