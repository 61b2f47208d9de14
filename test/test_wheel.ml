(* Scheduler-backend equivalence: the timing wheel must fire the exact
   same (label, time) stream as the reference binary heap under
   randomized schedule/cancel interleavings — including same-tick ties,
   zero and sub-tick delays, far-future overflow timers, nested
   scheduling from inside callbacks, and bounded runs — with the
   [live = pending] accounting invariant holding on both throughout. *)

open Sim

(* One randomized episode against the given backend: returns the fired
   (label, time) stream plus final clock/fired counters. All randomness
   comes from a seeded side stream, never from engine state, so the heap
   and wheel episodes for one seed see identical operation sequences. *)
let scenario backend seed =
  let engine = Engine.create ~seed:42 ~backend () in
  let rng = Bitkit.Rng.create seed in
  let log = ref [] in
  let handles = ref [] in
  let next_label = ref 0 in
  let delay rng =
    match Bitkit.Rng.int rng 6 with
    | 0 -> 0.
    | 1 -> 1e-9
    (* Exact multiples of the wheel's 1 ms tick: same-tick ties. *)
    | 2 -> float_of_int (Bitkit.Rng.int rng 50) *. 1e-3
    | 3 -> Bitkit.Rng.float rng *. 2.
    (* Beyond the ~1 s L0 window. *)
    | 4 -> 2. +. (Bitkit.Rng.float rng *. 600.)
    (* Beyond the ~17 min L1 horizon: overflow-heap territory. *)
    | _ -> 2000. +. (Bitkit.Rng.float rng *. 5000.)
  in
  for _round = 1 to 40 do
    let burst = 1 + Bitkit.Rng.int rng 12 in
    for _ = 1 to burst do
      let label = !next_label in
      incr next_label;
      let h =
        Engine.schedule engine ~after:(delay rng) (fun () ->
            log := (label, Engine.now engine) :: !log;
            if label mod 7 = 0 then
              ignore
                (Engine.schedule engine
                   ~after:(float_of_int (label mod 5) *. 1e-3)
                   (fun () -> log := (-label - 1, Engine.now engine) :: !log)))
      in
      handles := h :: !handles
    done;
    (* Cancel a random subset; fired handles stay in the list on purpose,
       so cancel-after-fire no-ops are exercised too. *)
    handles :=
      List.filter
        (fun h ->
          if Bitkit.Rng.coin rng 0.3 then begin
            Engine.cancel h;
            false
          end
          else true)
        !handles;
    (match Bitkit.Rng.int rng 4 with
    | 0 -> Engine.run ~until:(Engine.now engine +. Bitkit.Rng.float rng) engine
    | 1 ->
        Engine.run
          ~until:(Engine.now engine +. (Bitkit.Rng.float rng *. 50.))
          engine
    | 2 -> Engine.run ~max_events:(1 + Bitkit.Rng.int rng 20) engine
    | _ -> ());
    Alcotest.(check int)
      "pending = scan" (Engine.pending_scan engine) (Engine.pending engine)
  done;
  Engine.run engine;
  Alcotest.(check int) "drained pending" 0 (Engine.pending engine);
  (List.rev !log, Engine.now engine, Engine.events_fired engine)

let test_equivalence () =
  for seed = 1 to 8 do
    let wheel = scenario `Wheel seed in
    let heap = scenario `Heap seed in
    let w_log, w_clock, w_fired = wheel in
    let h_log, h_clock, h_fired = heap in
    Alcotest.(check int)
      (Printf.sprintf "seed %d: fired counts" seed)
      h_fired w_fired;
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: final clocks equal" seed)
      true
      (w_clock = h_clock);
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: identical (label, time) streams" seed)
      true (w_log = h_log)
  done

(* Same tick, different insertion order: the wheel's front heap must
   restore exact FIFO-on-ties, across an L1 cascade and an overflow
   migration as well as direct L0 drains. *)
let test_same_tick_ties () =
  List.iter
    (fun base ->
      let engine = Engine.create () in
      let order = ref [] in
      for i = 0 to 9 do
        ignore
          (Engine.at engine ~time:base (fun () -> order := i :: !order))
      done;
      Engine.run engine;
      Alcotest.(check (list int))
        (Printf.sprintf "FIFO at t=%g" base)
        [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
        (List.rev !order);
      Alcotest.(check bool)
        (Printf.sprintf "clock at t=%g" base)
        true
        (Engine.now engine = base))
    [ 0.5; 700.; 3600. ]

(* Far-future timers park in the overflow heap; cancelling most of them
   must still compact, and the survivors fire in order. *)
let test_overflow_cancel_compact () =
  let engine = Engine.create () in
  let fired = ref [] in
  let handles =
    List.init 1000 (fun i ->
        ( i,
          Engine.at engine
            ~time:(3000. +. float_of_int i)
            (fun () -> fired := i :: !fired) ))
  in
  List.iter (fun (i, h) -> if i mod 10 <> 0 then Engine.cancel h) handles;
  Alcotest.(check int) "pending after cancels" 100 (Engine.pending engine);
  Engine.run engine;
  Alcotest.(check int) "survivors fired" 100 (List.length !fired);
  Alcotest.(check (list int))
    "in order"
    (List.init 100 (fun i -> 10 * i))
    (List.rev !fired);
  Alcotest.(check bool) "compacted" true (Engine.compactions engine > 0)

(* The O(1) [pending] counter must agree with the O(total) [pending_scan]
   audit at every point of a randomized cancel storm — including double
   cancels, cancel-after-fire, and cancels that land in the overflow
   heap — on both backends. *)
let test_pending_counter_audit () =
  List.iter
    (fun backend ->
      let engine = Engine.create ~backend () in
      let rng = Bitkit.Rng.create 99 in
      let handles = ref [] in
      for _round = 1 to 30 do
        for _ = 1 to 1 + Bitkit.Rng.int rng 40 do
          let h =
            Engine.schedule engine
              ~after:(Bitkit.Rng.float rng *. 4000.)
              ignore
          in
          handles := h :: !handles
        done;
        (* Storm: cancel a random subset, then re-cancel some of the very
           same handles (no-ops) and some already-fired ones. *)
        List.iter
          (fun h -> if Bitkit.Rng.coin rng 0.5 then Engine.cancel h)
          !handles;
        List.iter
          (fun h -> if Bitkit.Rng.coin rng 0.2 then Engine.cancel h)
          !handles;
        if Bitkit.Rng.coin rng 0.5 then
          Engine.run ~until:(Engine.now engine +. Bitkit.Rng.float rng) engine;
        Alcotest.(check int)
          (Printf.sprintf "counter = scan (%s)"
             (match backend with `Wheel -> "wheel" | `Heap -> "heap"))
          (Engine.pending_scan engine)
          (Engine.pending engine)
      done;
      Engine.run engine;
      Alcotest.(check int) "drained: counter = scan"
        (Engine.pending_scan engine)
        (Engine.pending engine);
      Alcotest.(check int) "drained: counter = 0" 0 (Engine.pending engine))
    [ `Wheel; `Heap ]

(* A bounded run must not degrade the wheel: events scheduled after a
   long empty [run ~until] still fire in exact order. *)
let test_schedule_after_bounded_run () =
  let engine = Engine.create () in
  Engine.run ~until:100. engine;
  Alcotest.(check bool) "clock advanced" true (Engine.now engine = 100.);
  let order = ref [] in
  ignore (Engine.schedule engine ~after:0.002 (fun () -> order := 2 :: !order));
  ignore (Engine.schedule engine ~after:0.001 (fun () -> order := 1 :: !order));
  ignore (Engine.schedule engine ~after:5000. (fun () -> order := 3 :: !order));
  Engine.run engine;
  Alcotest.(check (list int)) "order kept" [ 1; 2; 3 ] (List.rev !order)

let test_default_backend () =
  Alcotest.(check bool)
    "default is the wheel" true
    (Engine.backend (Engine.create ()) = `Wheel);
  Alcotest.(check bool)
    "heap on request" true
    (Engine.backend (Engine.create ~backend:`Heap ()) = `Heap)

(* --- Eheap against the swap-based heap it replaced --------------------- *)

type heap_op = Push of int | Pop | Peek | Kill of int | Compact

(* Random push, pop, peek, kill (cancel a queued entry) and compact
   sequences on both heaps, from one slot so that every push grows the
   arrays at first: times come from a handful of values so most pushes
   tie and fall back on [seq]. After every step both heaps hold the same
   entries, give the same top, and pop and drop the same events. *)
let prop_heap_oracle =
  let op_gen =
    QCheck2.Gen.(
      frequency
        [ (6, map (fun k -> Push k) (0 -- 5)); (3, return Pop); (2, return Peek);
          (2, map (fun k -> Kill k) (0 -- 1_000)); (1, return Compact) ])
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"eheap = swap-based oracle"
       QCheck2.Gen.(list_size (0 -- 200) op_gen)
       (fun ops ->
         let h = Wheel.Eheap.create ~capacity:1 () and o = Heap_oracle.create ~capacity:1 () in
         let next = ref 0 in
         let entries iter q =
           let l = ref [] in
           iter q (fun (ev : Wheel.event) -> l := ev.seq :: !l);
           List.sort compare !l
         in
         let same_top () =
           match Heap_oracle.peek o with
           | None -> Wheel.Eheap.top h == Wheel.none
           | Some ev -> Wheel.Eheap.top h == ev
         in
         let step op =
           (match op with
           | Push k ->
               let ev =
                 { Wheel.time = [| 0.; 0.5; 1.; 1.; 2.; 1e9 |].(k); seq = !next; fn = ignore;
                   dead = false; live = ref 0; dead_in_heap = ref 0 }
               in
               incr next;
               Wheel.Eheap.push h ev;
               Heap_oracle.push o ev;
               true
           | Pop -> (
               let got = Wheel.Eheap.pop h in
               match Heap_oracle.pop o with
               | None -> got == Wheel.none
               | Some ev -> got == ev)
           | Peek -> same_top ()
           | Kill k ->
               (* Mark the [k]th queued entry dead in both, as a cancel does. *)
               let n = Heap_oracle.size o in
               if n > 0 then begin
                 let i = ref 0 in
                 Heap_oracle.iter o (fun ev ->
                     if !i = k mod n then ev.Wheel.dead <- true;
                     incr i)
               end;
               true
           | Compact ->
               let dropped_h = ref [] and dropped_o = ref [] in
               Wheel.Eheap.compact h ~on_drop:(fun ev -> dropped_h := ev.seq :: !dropped_h);
               Heap_oracle.compact o ~on_drop:(fun ev -> dropped_o := ev.seq :: !dropped_o);
               List.sort compare !dropped_h = List.sort compare !dropped_o)
           && Wheel.Eheap.size h = Heap_oracle.size o
           && entries Wheel.Eheap.iter h = entries Heap_oracle.iter o
           && same_top ()
         in
         let rec drain () =
           let got = Wheel.Eheap.pop h in
           match Heap_oracle.pop o with
           | None -> got == Wheel.none && Wheel.Eheap.size h = 0
           | Some ev -> got == ev && drain ()
         in
         List.for_all step ops && drain ()))

(* Firing a queued event allocates nothing on either backend: the queue
   hands back its top without an option, and the heaps compare keys
   stored beside the events. 20 000 events in shuffled order over 900
   of the wheel's 1 ms ticks, sharing one closure; the only words are
   the front heap's arrays growing once (about 100 words). The wheel
   that returned an option per peek and pop took about 200 000. *)
let test_dequeue_allocation_free () =
  List.iter
    (fun backend ->
      let engine = Engine.create ~backend () in
      let fired = ref 0 in
      let fn () = incr fired in
      let n = 20_000 in
      for i = 0 to n - 1 do
        ignore (Engine.at engine ~time:(float_of_int (i * 7919 mod n) *. 4.5e-5) fn)
      done;
      let w0 = Gc.minor_words () in
      Engine.run engine;
      let words = Gc.minor_words () -. w0 in
      Alcotest.(check int) "all fired" n !fired;
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f words for %d events"
           (if backend = `Wheel then "wheel" else "heap") words n)
        true (words <= 200.))
    [ `Wheel; `Heap ]

(* Compacting sweeps every slot of both levels (2 x 1 024 by default),
   but it must cost what the live entries cost, not what the slots do.
   [k] live events spread over both levels, each followed in its slot by
   a dead one, so the sweep conses once in front of every dropped event:
   3 words per live entry at most, plus a constant. The sweep that
   filtered every slot with a closure of its own took about 8 200 words
   even for an empty wheel. *)
let test_compact_allocation () =
  List.iter
    (fun k ->
      let w = Wheel.create () in
      let live = ref 0 and dead_in_heap = ref 0 in
      let add j ~dead =
        (* Even [j] in L0's 1 s window, odd [j] in L1 buckets. *)
        let time = if j mod 2 = 0 then 1e-3 *. float_of_int j else 2. *. float_of_int j in
        let seq = (2 * j) + if dead then 0 else 1 in
        Wheel.add w { Wheel.time; seq; fn = ignore; dead; live; dead_in_heap };
        if dead then incr dead_in_heap else incr live
      in
      (* A slot lists its events newest first: each dead event goes in
         first, so it sits behind its live neighbour. *)
      for j = 0 to k - 1 do
        add j ~dead:true;
        add j ~dead:false
      done;
      let w0 = Gc.minor_words () in
      Wheel.compact w;
      let words = Gc.minor_words () -. w0 in
      Alcotest.(check int) (Printf.sprintf "k = %d: dead swept" k) 0 !dead_in_heap;
      Alcotest.(check int) (Printf.sprintf "k = %d: live kept" k) k (Wheel.total w);
      Alcotest.(check bool)
        (Printf.sprintf "k = %d: %.0f words" k words)
        true
        (words <= float_of_int ((3 * k) + 64)))
    [ 0; 1; 16; 256 ]

let () =
  Alcotest.run "wheel"
    [
      ( "equivalence",
        [
          Alcotest.test_case "wheel = heap on random interleavings" `Quick
            test_equivalence;
          prop_heap_oracle;
        ] );
      ( "ordering",
        [
          Alcotest.test_case "same-tick FIFO across levels" `Quick
            test_same_tick_ties;
          Alcotest.test_case "overflow cancel + compaction" `Quick
            test_overflow_cancel_compact;
          Alcotest.test_case "pending counter survives cancel storms" `Quick
            test_pending_counter_audit;
          Alcotest.test_case "schedule after bounded run" `Quick
            test_schedule_after_bounded_run;
          Alcotest.test_case "backend selection" `Quick test_default_backend;
          Alcotest.test_case "dequeue allocates nothing" `Quick test_dequeue_allocation_free;
          Alcotest.test_case "compaction allocates per live entry" `Quick
            test_compact_allocation;
        ] );
    ]
