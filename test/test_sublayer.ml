(* Tests for the sublayer framework: action routing through Stack,
   runtime timer semantics, T3 layout auditing, sequence spaces. *)

open Sublayer

let check = Alcotest.check
let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* A toy sublayer that prefixes its tag going down and strips it coming
   up — a minimal header discipline. *)
module Tag (C : sig
  val tag : string
end) =
struct
  let name = "tag-" ^ C.tag

  type t = int (* messages seen, to check state threading *)
  type up_req = string
  type up_ind = string
  type down_req = string
  type down_ind = string
  type timer = unit

  let handle_up_req n msg = (n + 1, [ Machine.Down (C.tag ^ msg) ])

  let handle_down_ind n msg =
    let tl = String.length C.tag in
    if String.length msg >= tl && String.sub msg 0 tl = C.tag then
      (n + 1, [ Machine.Up (String.sub msg tl (String.length msg - tl)) ])
    else (n, [ Machine.Note "wrong tag" ])

  let handle_timer n () = (n, [ Machine.Note "tick" ])
end

module A = Tag (struct let tag = "A" end)
module B = Tag (struct let tag = "B" end)
module AB = Machine.Stack (A) (B)

let test_stack_down_path () =
  let (_ : AB.t), acts = AB.handle_up_req (0, 0) "payload" in
  match acts with
  | [ Machine.Down s ] -> check Alcotest.string "onion order" "BApayload" s
  | _ -> Alcotest.fail "expected a single Down"

let test_stack_up_path () =
  let (_ : AB.t), acts = AB.handle_down_ind (0, 0) "BAx" in
  match acts with
  | [ Machine.Up s ] -> check Alcotest.string "stripped" "x" s
  | _ -> Alcotest.fail "expected a single Up"

let test_stack_state_threading () =
  let st, _ = AB.handle_up_req (0, 0) "m" in
  let st, _ = AB.handle_down_ind st "BAx" in
  check Alcotest.(pair int int) "both counted" (2, 2) st

let test_stack_wrong_tag_dropped () =
  let (_ : AB.t), acts = AB.handle_down_ind (0, 0) "XYx" in
  match acts with
  | [ Machine.Note _ ] -> ()
  | _ -> Alcotest.fail "expected only a note"

let test_stack_timer_routing () =
  let (_ : AB.t), acts = AB.handle_timer (0, 0) (Either.Left ()) in
  (match acts with
  | [ Machine.Note n ] -> check Alcotest.bool "upper name prefixed" true
      (String.length n > 0 && String.sub n 0 5 = "tag-A")
  | _ -> Alcotest.fail "expected note");
  let (_ : AB.t), acts = AB.handle_timer (0, 0) (Either.Right ()) in
  match acts with
  | [ Machine.Note n ] -> check Alcotest.bool "lower name prefixed" true
      (String.sub n 0 5 = "tag-B")
  | _ -> Alcotest.fail "expected note"

(* An echo sublayer exercising causal ordering: when it receives a
   message from below it immediately sends a reply down. *)
module Echo = struct
  let name = "echo"

  type t = unit
  type up_req = string
  type up_ind = string
  type down_req = string
  type down_ind = string
  type timer = Machine.Nothing.t

  let handle_up_req () m = ((), [ Machine.Down m ])
  let handle_down_ind () m = ((), [ Machine.Up m; Machine.Down ("reply:" ^ m) ])
  let handle_timer () t = Machine.Nothing.absurd t
end

module EchoB = Machine.Stack (Echo) (B)

let test_stack_causal_order () =
  (* B delivers up to Echo; Echo's reply must go back down through B. *)
  let (_ : EchoB.t), acts = EchoB.handle_down_ind ((), 0) "Bhello" in
  match acts with
  | [ Machine.Up u; Machine.Down d ] ->
      check Alcotest.string "up" "hello" u;
      check Alcotest.string "reply re-tagged" "Breply:hello" d
  | _ -> Alcotest.failf "unexpected action shape (%d actions)" (List.length acts)

(* --- Stack drain = oracle --- *)

(* A scripted machine: each transition picks one entry of its script by
   state and input, then instantiates the entry's templates, so random
   scripts reach every routing case, re-entrant crossings included.
   Messages are ints whose hundreds count the crossings made so far;
   past four, a crossing template becomes a note, which bounds the
   recursion. A timer is armed at least an eighth of a second ahead, so
   a run over a bounded time fires a bounded number of them. *)
type template = T_up | T_down | T_set of int | T_cancel of int | T_note

let scripts : template list array array ref = ref [||]

(* Every call a scripted machine takes, in order: its number, the kind
   of call (0 request, 1 indication, 2 timer) and the input. *)
let calls = ref []

module Scripted (N : sig
  val index : int
end) =
struct
  let name = "m" ^ string_of_int N.index
  let scope = name

  type t = int
  type up_req = int
  type up_ind = int
  type down_req = int
  type down_ind = int
  type timer = int

  let step n kind m =
    calls := (N.index, kind, m) :: !calls;
    let n = ((n * 31) + (m * 3) + kind + 1) land 0xFFFF in
    let entries = !scripts.(N.index) in
    let deep = m >= 400 in
    let act = function
      | T_up -> if deep then Machine.Note "deep" else Machine.Up (m + 100 + N.index)
      | T_down -> if deep then Machine.Note "deep" else Machine.Down (m + 100 + N.index)
      | T_set k -> Machine.Set_timer (k, Float.of_int (1 + (n land 7)) *. 0.125)
      | T_cancel k -> Machine.Cancel_timer k
      | T_note -> Machine.Note (Printf.sprintf "%d@%d" kind m)
    in
    (n, List.map act entries.(n mod Array.length entries))

  let handle_up_req n m = step n 0 m
  let handle_down_ind n m = step n 1 m
  let handle_timer n k = step n 2 k
end

module M0 = Scripted (struct let index = 0 end)
module M1 = Scripted (struct let index = 1 end)
module M2 = Scripted (struct let index = 2 end)

module Tap = Machine.Probe (struct
  type req = int
  type ind = int

  let name = "tap"
end)

(* The probes' observations, in the order the drain made them, each
   with the number of the tap that made it. *)
let tap_log = ref []

let tap_at n =
  { Tap.obs_req = (fun m -> tap_log := (n, `Req m) :: !tap_log);
    obs_ind = (fun m -> tap_log := (n, `Ind m) :: !tap_log) }

let tap = tap_at 0

module type STACK = functor
  (U : Machine.S)
  (L : Machine.S with type up_req = U.down_req and type up_ind = U.down_ind)
  ->
  Machine.S
    with type t = U.t * L.t
     and type up_req = U.up_req
     and type up_ind = U.up_ind
     and type down_req = L.down_req
     and type down_ind = L.down_ind
     and type timer = (U.timer, L.timer) Either.t

(* Three shapes, two to four machines deep: a plain pair, a probe seam,
   and a stacked upper over a stacked lower. *)
module Shapes (Stack : STACK) = struct
  module D2 = Stack (M0) (M1)
  module D3 = Stack (M0) (Stack (Tap) (M1))
  module D4 = Stack (Stack (M0) (Tap)) (Stack (M1) (M2))
end

module New = Shapes (Machine.Stack)
module Old = Shapes (Stack_oracle.Stack)

type input = Req of int | Ind of int | Tick of int * int

(* Feed the inputs to a stack; every step's actions, then the final
   state and the probe log. [timer j k] names machine [j]'s timer [k]. *)
let run (type st tm)
    (module S : Machine.S
      with type t = st
       and type up_req = int
       and type up_ind = int
       and type down_req = int
       and type down_ind = int
       and type timer = tm)
    (st : st) (timer : int -> int -> tm) inputs =
  tap_log := [];
  let st, steps =
    List.fold_left
      (fun (st, acc) input ->
        let st, acts =
          match input with
          | Req m -> S.handle_up_req st m
          | Ind m -> S.handle_down_ind st m
          | Tick (j, k) -> S.handle_timer st (timer j k)
        in
        (st, acts :: acc))
      (st, []) inputs
  in
  (st, List.rev steps, List.rev !tap_log)

let gen_script =
  QCheck2.Gen.(
    let template =
      frequency
        [ (3, pure T_up); (3, pure T_down); (1, map (fun k -> T_set k) (0 -- 2));
          (1, map (fun k -> T_cancel k) (0 -- 2)); (1, pure T_note) ]
    in
    array_size (1 -- 4) (list_size (0 -- 3) template))

let gen_drain =
  QCheck2.Gen.(
    let input =
      oneof
        [ map (fun m -> Req m) (0 -- 99); map (fun m -> Ind m) (0 -- 99);
          map2 (fun j k -> Tick (j, k)) (0 -- 2) (0 -- 2) ]
    in
    pair (array_repeat 3 gen_script) (list_size (1 -- 6) input))

(* States carry the probe's closures, so they are compared with
   [compare], which never looks inside the (shared) probe record. *)
let same (st, steps, log) (st', steps', log') =
  compare st st' = 0 && steps = steps' && log = log'

let prop_stack_matches_oracle =
  qtest "stack drain = list-rebuilding oracle" gen_drain (fun (script, inputs) ->
      scripts := script;
      let t2 j k = if j = 0 then Either.Left k else Either.Right k in
      let t3 j k = if j = 0 then Either.Left k else Either.Right (Either.Right k) in
      let t4 j k =
        match j with
        | 0 -> Either.Left (Either.Left k)
        | 1 -> Either.Right (Either.Left k)
        | _ -> Either.Right (Either.Right k)
      in
      same
        (run (module New.D2) (0, 0) t2 inputs)
        (run (module Old.D2) (0, 0) t2 inputs)
      && same
           (run (module New.D3) (0, (tap, 0)) t3 inputs)
           (run (module Old.D3) (0, (tap, 0)) t3 inputs)
      && same
           (run (module New.D4) ((0, tap), (0, 0)) t4 inputs)
           (run (module Old.D4) ((0, tap), (0, 0)) t4 inputs))

(* --- Compose drain = reference drain --- *)

(* The scripted machines declared with [Compose] and run by
   [Compose.Run], against the same machines nested with [Machine.Stack],
   each probe a [Machine.Probe] level of its own, run by [Runtime.Make]:
   the reference drain. Both run on an engine, so what is compared is
   what an endpoint does: the sublayer calls and tap observations in
   order, every transmission and delivery at its virtual time (timer
   fires show as calls and as what they send), and the notes a tracer
   records. *)

type feed = From_above of int | From_below of int | Wait of int

let gen_feeds =
  QCheck2.Gen.(
    let feed =
      frequency
        [ (3, map (fun m -> From_above m) (0 -- 99)); (3, map (fun m -> From_below m) (0 -- 99));
          (2, map (fun d -> Wait d) (1 -- 8)) ]
    in
    pair (array_repeat 3 gen_script) (list_size (1 -- 8) feed))

type endpoint = { above : int -> unit; below : int -> unit }

type maker =
  Sim.Engine.t ->
  Sim.Tracer.t option ->
  transmit:(int -> unit) ->
  deliver:(int -> unit) ->
  endpoint

(* Feed an endpoint on a fresh engine, then let its timers run out. *)
let drive ~traced (make : maker) feeds =
  calls := [];
  tap_log := [];
  let engine = Sim.Engine.create () in
  let tracer = if traced then Some (Sim.Tracer.create ()) else None in
  let out = ref [] in
  let log x = out := (Sim.Engine.now engine, x) :: !out in
  let ep = make engine tracer ~transmit:(fun r -> log (`Tx r)) ~deliver:(fun i -> log (`Rx i)) in
  let wait d =
    let until = Sim.Engine.now engine +. (Float.of_int d *. 0.125) in
    Sim.Engine.run ~max_events:2_000 ~until engine
  in
  List.iter
    (function From_above m -> ep.above m | From_below m -> ep.below m | Wait d -> wait d)
    feeds;
  wait 16;
  let notes =
    match tracer with
    | None -> []
    | Some tr ->
        List.map (fun (sp : Sim.Tracer.span) -> (sp.sp_start, sp.sp_name)) (Sim.Tracer.spans tr)
  in
  (List.rev !calls, List.rev !tap_log, List.rev !out, notes)

module Ref2 = Runtime.Make (Machine.Stack (M0) (Machine.Stack (Tap) (M1)))

module Ref3 =
  Runtime.Make
    (Machine.Stack (M0) (Machine.Stack (Tap) (Machine.Stack (M1) (Machine.Stack (Tap) (M2)))))

(* The references, the probe levels' states tapping as [tap_at] numbers
   them. *)
let reference2 engine tracer ~transmit ~deliver =
  let r = Ref2.create engine ?tracer ~name:"e" ~transmit ~deliver (0, (tap_at 0, 0)) in
  { above = Ref2.from_above r; below = Ref2.from_below r }

let reference3 ~upper engine tracer ~transmit ~deliver =
  let r =
    Ref3.create engine ?tracer ~name:"e" ~transmit ~deliver
      (0, (tap_at upper, (0, (tap_at 1, 0))))
  in
  { above = Ref3.from_above r; below = Ref3.from_below r }

(* A tap whose shared inert value logs as tap 9, so a seam that calls an
   inert probe shows in the log. *)
module Watched = struct
  let name = Tap.name

  type up_req = int
  type up_ind = int
  type t = Tap.t = { obs_req : int -> unit; obs_ind : int -> unit }

  let inert = tap_at 9
end

module C2 = Compose.Seam (M0) (Tap) (Compose.Last (M1))
module C3 = Compose.Seam (M0) (Watched) (Compose.Seam (M1) (Tap) (Compose.Last (M2)))
module Run2 = Compose.Run (C2)
module Run3 = Compose.Run (C3)

let probe tap : _ Compose.probe = fun ?alloc:_ _ ~conn:_ -> tap

let composed2 engine tracer ~transmit ~deliver =
  let ins = Instrument.v ?tracer () in
  let r = Run2.create engine ~ins ~name:"e" ~transmit ~deliver (0, probe (tap_at 0), 0) in
  { above = Run2.from_above r; below = Run2.from_below r }

let parts3 upper = (0, probe upper, (0, probe (tap_at 1), 0))

let composed3 ~upper engine tracer ~transmit ~deliver =
  let ins = Instrument.v ?tracer () in
  let r = Run3.create engine ~ins ~name:"e" ~transmit ~deliver (parts3 upper) in
  { above = Run3.from_above r; below = Run3.from_below r }

(* [Compose.Run]'s runtime over [C3], noting whether any step handed the
   runtime a [Note]. *)
let noted = ref false

module Noted = Runtime.Drive (struct
  include C3

  let note step =
    if List.exists (function Machine.Note _ -> true | _ -> false) step then noted := true;
    step

  let up_req ~traced t r = note (C3.up_req ~traced t r)
  let down_ind ~traced t i = note (C3.down_ind ~traced t i)
  let timer ~traced t tm = note (C3.fire ~traced t (C3.key tm))
end)

let untraced3 engine tracer ~transmit ~deliver =
  let r =
    Noted.create engine ?tracer ~name:"e" ~transmit ~deliver
      (C3.build [||] None ~conn:"e" (parts3 (tap_at 0)))
  in
  { above = Noted.from_above r; below = Noted.from_below r }

let prop_seam_matches_stack =
  qtest ~count:1000 "seam = stack over probe" gen_feeds (fun (script, feeds) ->
      scripts := script;
      let run = drive ~traced:true in
      let calls, taps, out, notes = run (composed3 ~upper:Watched.inert) feeds in
      let calls', taps', out', notes' = run (reference3 ~upper:9) feeds in
      noted := false;
      let untraced = drive ~traced:false untraced3 feeds in
      run composed2 feeds = run reference2 feeds
      && run (composed3 ~upper:(tap_at 0)) feeds = run (reference3 ~upper:0) feeds
      (* an inert upper probe: nothing logs as tap 9, the rest as before *)
      && calls = calls' && out = out' && notes = notes'
      && taps = List.filter (fun (n, _) -> n <> 9) taps'
      (* no tracer: no [Note] reaches the runtime, and nothing else moves *)
      && untraced = drive ~traced:false (reference3 ~upper:0) feeds
      && not !noted)

(* --- Runtime --- *)

module Delay = struct
  let name = "delay"

  type t = unit
  type up_req = string
  type up_ind = string
  type down_req = string
  type down_ind = string
  type timer = Deliver of string

  let handle_up_req () m = ((), [ Machine.Set_timer (Deliver m, 0.5) ])
  let handle_down_ind () m = ((), [ Machine.Up m ])
  let handle_timer () (Deliver m) = ((), [ Machine.Down m ])
end

module DelayRt = Runtime.Make (Delay)

let test_runtime_timer_fires () =
  let engine = Sim.Engine.create () in
  let sent = ref [] in
  let rt =
    DelayRt.create engine ~name:"d" ~transmit:(fun s -> sent := s :: !sent)
      ~deliver:(fun _ -> ()) ()
  in
  DelayRt.from_above rt "x";
  check Alcotest.int "armed" 1 (DelayRt.active_timers rt);
  Sim.Engine.run engine;
  check Alcotest.(list string) "fired" [ "x" ] !sent;
  check Alcotest.int "disarmed" 0 (DelayRt.active_timers rt);
  check Alcotest.bool "time advanced" true (Sim.Engine.now engine >= 0.5)

let test_runtime_timer_rearm_replaces () =
  let engine = Sim.Engine.create () in
  let sent = ref [] in
  let rt =
    DelayRt.create engine ~name:"d" ~transmit:(fun s -> sent := s :: !sent)
      ~deliver:(fun _ -> ()) ()
  in
  (* Same timer value re-armed: only the last firing survives. *)
  DelayRt.from_above rt "x";
  DelayRt.from_above rt "x";
  Sim.Engine.run engine;
  check Alcotest.(list string) "one firing" [ "x" ] !sent

(* A machine that re-arms one timer on every request. Its answer is a
   constant, so the machine itself allocates nothing. *)
module Rearm = struct
  let name = "rearm"

  type t = unit
  type up_req = unit
  type up_ind = unit
  type down_req = unit
  type down_ind = unit
  type timer = Tick

  let handle_up_req () () = ((), [ Machine.Set_timer (Tick, 1.0) ])
  let handle_down_ind () () = ((), [])
  let handle_timer () Tick = ((), [])
end

module RearmRt = Runtime.Make (Rearm)

(* A re-arm reschedules the timer's entry with the closure the entry was
   made with: 10 000 re-arms allocate what the engine's 10 000 events
   allocate (scheduled and cancelled the same way by hand), and no
   closure on top. The runtime that built a fire closure per arm took
   6 words more per re-arm. *)
let test_runtime_rearm_allocates_events_only () =
  let n = 10_000 in
  let engine = Sim.Engine.create () in
  let rt = RearmRt.create engine ~name:"r" ~transmit:ignore ~deliver:ignore () in
  RearmRt.from_above rt ();
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    RearmRt.from_above rt ()
  done;
  let rearms = Gc.minor_words () -. w0 in
  check Alcotest.int "one armed entry" 1 (RearmRt.active_timers rt);
  check Alcotest.int "one live event" 1 (Sim.Engine.pending engine);
  let engine = Sim.Engine.create () in
  let fire () = () in
  let h = ref (Sim.Engine.schedule engine ~after:1.0 fire) in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    Sim.Engine.cancel !h;
    h := Sim.Engine.schedule engine ~after:1.0 fire
  done;
  let events = Gc.minor_words () -. w0 in
  check Alcotest.bool
    (Printf.sprintf "%.0f words for %d re-arms, %.0f for their events" rearms n events)
    true
    (rearms <= events +. 64.)

(* A machine answering a request with an indication, a timer and a
   transmission, in that order. *)
module Burst = struct
  let name = "burst"

  type t = unit
  type up_req = unit
  type up_ind = unit
  type down_req = unit
  type down_ind = unit
  type timer = int

  let handle_up_req () () =
    ((), [ Machine.Up (); Machine.Set_timer (1, 0.5); Machine.Down () ])

  let handle_down_ind () () = ((), [])
  let handle_timer () _ = ((), [])
end

module BurstRt = Runtime.Make (Burst)

let test_runtime_halt_mid_apply () =
  (* The delivery halts the runtime: the timer and the transmission
     after it in the same list must not happen. *)
  let engine = Sim.Engine.create () in
  let sent = ref 0 and rt = ref None in
  let r =
    BurstRt.create engine ~name:"b"
      ~transmit:(fun () -> incr sent)
      ~deliver:(fun () -> Option.iter BurstRt.halt !rt)
      ()
  in
  rt := Some r;
  BurstRt.from_above r ();
  check Alcotest.bool "halted" true (BurstRt.halted r);
  check Alcotest.int "no transmit after the halt" 0 !sent;
  check Alcotest.int "no armed timer" 0 (BurstRt.active_timers r);
  check Alcotest.int "no pending event" 0 (Sim.Engine.pending engine)

(* A machine that notes each request half a second after it arrives. *)
module Noter = struct
  let name = "noter"

  type t = unit
  type up_req = string
  type up_ind = unit
  type down_req = unit
  type down_ind = unit
  type timer = Due of string

  let handle_up_req () m = ((), [ Machine.Set_timer (Due m, 0.5) ])
  let handle_down_ind () () = ((), [])
  let handle_timer () (Due m) = ((), [ Machine.Note ("noted " ^ m) ])
end

module NoterRt = Runtime.Make (Noter)

(* The runtime records each [Note] a step returns in the tracer it was
   given, as an instant at the current virtual time on the endpoint's
   track under sublayer "note", and records its own halt the same way. *)
let test_runtime_trace_notes () =
  let engine = Sim.Engine.create () in
  let tracer = Sim.Tracer.create () in
  let rt = NoterRt.create engine ~tracer ~name:"e" ~transmit:ignore ~deliver:ignore () in
  NoterRt.from_above rt "hello";
  ignore (Sim.Engine.schedule engine ~after:2.0 (fun () -> NoterRt.halt rt));
  Sim.Engine.run engine;
  check
    Alcotest.(list (pair (pair (float 0.) (float 0.)) (triple string string string)))
    "two instants"
    [ ((0.5, 0.5), ("e", "note", "noted hello")); ((2.0, 2.0), ("e", "note", "halted")) ]
    (List.map
       (fun (sp : Sim.Tracer.span) ->
         ((sp.sp_start, sp.sp_end), (sp.sp_track, sp.sp_sublayer, sp.sp_name)))
       (Sim.Tracer.spans tracer))

(* --- Runtime timers = reference model --- *)

(* Timer keys are nested [Either] values, as in a composed stack. *)
module Timers = struct
  let name = "timers"

  type t = unit
  type up_req = Arm of (int, int) Either.t * float | Disarm of (int, int) Either.t
  type up_ind = (int, int) Either.t
  type down_req = unit
  type down_ind = unit
  type timer = (int, int) Either.t

  let handle_up_req () = function
    | Arm (k, d) -> ((), [ Machine.Set_timer (k, d) ])
    | Disarm k -> ((), [ Machine.Cancel_timer k ])

  let handle_down_ind () () = ((), [])
  let handle_timer () k = ((), [ Machine.Up k ])
end

module TimersRt = Runtime.Make (Timers)

type timer_op = Set of int * int | Cancel of int | Advance of int | Halt

(* What the runtime promises: one armed entry per key (re-arming moves
   the deadline), fires in (deadline, arming order), nothing after a
   halt. Times are in eighths of a second, so float sums are exact. *)
let timer_model ops =
  let armed = ref [] and seq = ref 0 and now = ref 0. and halted = ref false in
  let fired = ref [] and counts = ref [] in
  let disarm k = armed := List.filter (fun (k', _, _) -> k' <> k) !armed in
  List.iter
    (fun op ->
      (match op with
      | Set (k, d) when not !halted ->
          disarm k;
          incr seq;
          armed := (k, !now +. (Float.of_int d *. 0.125), !seq) :: !armed
      | Cancel k when not !halted -> disarm k
      | Set _ | Cancel _ -> ()
      | Advance d ->
          let until = !now +. (Float.of_int d *. 0.125) in
          let due, rest = List.partition (fun (_, at, _) -> at <= until) !armed in
          let due = List.sort (fun (_, a, s) (_, b, s') -> compare (a, s) (b, s')) due in
          List.iter (fun (k, at, _) -> fired := (k, at) :: !fired) due;
          armed := rest;
          now := until
      | Halt ->
          halted := true;
          armed := []);
      counts := List.length !armed :: !counts)
    ops;
  (List.rev !fired, List.rev !counts)

let timer_key k = if k < 3 then Either.Left k else Either.Right k

let timer_runtime ops =
  let engine = Sim.Engine.create () in
  let fired = ref [] and counts = ref [] in
  let rt =
    TimersRt.create engine ~name:"t" ~transmit:ignore
      ~deliver:(fun k -> fired := (k, Sim.Engine.now engine) :: !fired)
      ()
  in
  List.iter
    (fun op ->
      (match op with
      | Set (k, d) ->
          TimersRt.from_above rt (Timers.Arm (timer_key k, Float.of_int d *. 0.125))
      | Cancel k -> TimersRt.from_above rt (Timers.Disarm (timer_key k))
      | Advance d ->
          Sim.Engine.run ~until:(Sim.Engine.now engine +. (Float.of_int d *. 0.125)) engine
      | Halt -> TimersRt.halt rt);
      counts := TimersRt.active_timers rt :: !counts)
    ops;
  (List.rev !fired, List.rev !counts)

let prop_runtime_timers =
  qtest "runtime timers = reference model"
    QCheck2.Gen.(
      list_size (1 -- 40)
        (frequency
           [ (4, map2 (fun k d -> Set (k, d)) (0 -- 5) (0 -- 8));
             (2, map (fun k -> Cancel k) (0 -- 5)); (3, map (fun d -> Advance d) (0 -- 8));
             (1, pure Halt) ]))
    (fun ops ->
      let fired, counts = timer_model ops in
      let fired = List.map (fun (k, at) -> (timer_key k, at)) fired in
      (fired, counts) = timer_runtime ops)

(* --- Layout --- *)

let field fname owner offset width = { Layout.fname; owner; offset; width }

let test_layout_disjoint_ok () =
  match Layout.make ~total_bits:16 [ field "a" "x" 0 8; field "b" "y" 8 8 ] with
  | Ok l ->
      check Alcotest.int "covered" 16 (Layout.covered_bits l);
      check Alcotest.(list string) "owners" [ "x"; "y" ] (Layout.owners l);
      check Alcotest.int "bits of x" 8 (Layout.bits_of l "x");
      check Alcotest.(option string) "owner of bit 3" (Some "x") (Layout.owner_of_bit l 3);
      check Alcotest.(option string) "owner of bit 12" (Some "y") (Layout.owner_of_bit l 12)
  | Error e -> Alcotest.fail e

let test_layout_overlap_rejected () =
  match Layout.make ~total_bits:16 [ field "a" "x" 0 9; field "b" "y" 8 8 ] with
  | Ok _ -> Alcotest.fail "overlap accepted"
  | Error _ -> ()

let test_layout_bounds_rejected () =
  match Layout.make ~total_bits:8 [ field "a" "x" 4 8 ] with
  | Ok _ -> Alcotest.fail "out of bounds accepted"
  | Error _ -> ()

let test_layout_empty_field_rejected () =
  match Layout.make ~total_bits:8 [ field "a" "x" 0 0 ] with
  | Ok _ -> Alcotest.fail "empty field accepted"
  | Error _ -> ()

(* --- Seqspace --- *)

let test_seqspace_wrap () =
  let s = Seqspace.create ~width:16 in
  check Alcotest.int "wrap" 0x2345 (Seqspace.wrap s 0x12345);
  check Alcotest.int "modulus" 65536 (Seqspace.modulus s)

let test_seqspace_reconstruct () =
  let s = Seqspace.create ~width:16 in
  check Alcotest.int "near below" 65534 (Seqspace.reconstruct s ~reference:65535 0xFFFE);
  check Alcotest.int "wrapped ahead" 65537 (Seqspace.reconstruct s ~reference:65535 1);
  check Alcotest.int "same" 100 (Seqspace.reconstruct s ~reference:100 100)

let prop_seqspace_roundtrip =
  qtest "reconstruct inverts wrap within half-window"
    QCheck2.Gen.(pair (0 -- 1_000_000) (-30000 -- 30000))
    (fun (reference, delta) ->
      let s = Seqspace.create ~width:16 in
      let v = reference + delta in
      v < 0 || Seqspace.reconstruct s ~reference (Seqspace.wrap s v) = v)

let prop_seqspace_compare =
  qtest "compare_near is consistent"
    QCheck2.Gen.(triple (0 -- 100000) (-100 -- 100) (-100 -- 100))
    (fun (reference, d1, d2) ->
      let s = Seqspace.create ~width:32 in
      let a = reference + d1 and b = reference + d2 in
      a < 0 || b < 0
      || Seqspace.compare_near s ~reference (Seqspace.wrap s a) (Seqspace.wrap s b)
         = Int.compare a b)

let () =
  Alcotest.run "sublayer"
    [
      ( "stack",
        [
          Alcotest.test_case "down path onion" `Quick test_stack_down_path;
          Alcotest.test_case "up path strips" `Quick test_stack_up_path;
          Alcotest.test_case "state threading" `Quick test_stack_state_threading;
          Alcotest.test_case "wrong tag dropped" `Quick test_stack_wrong_tag_dropped;
          Alcotest.test_case "timer routing" `Quick test_stack_timer_routing;
          Alcotest.test_case "causal ordering" `Quick test_stack_causal_order;
          prop_stack_matches_oracle;
          prop_seam_matches_stack;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "timer fires" `Quick test_runtime_timer_fires;
          Alcotest.test_case "re-arm replaces" `Quick test_runtime_timer_rearm_replaces;
          Alcotest.test_case "re-arm allocates the event only" `Quick
            test_runtime_rearm_allocates_events_only;
          Alcotest.test_case "trace notes" `Quick test_runtime_trace_notes;
          Alcotest.test_case "halt mid-apply stays inert" `Quick test_runtime_halt_mid_apply;
          prop_runtime_timers;
        ] );
      ( "layout",
        [
          Alcotest.test_case "disjoint accepted" `Quick test_layout_disjoint_ok;
          Alcotest.test_case "overlap rejected" `Quick test_layout_overlap_rejected;
          Alcotest.test_case "bounds rejected" `Quick test_layout_bounds_rejected;
          Alcotest.test_case "empty rejected" `Quick test_layout_empty_field_rejected;
        ] );
      ( "seqspace",
        [
          Alcotest.test_case "wrap" `Quick test_seqspace_wrap;
          Alcotest.test_case "reconstruct" `Quick test_seqspace_reconstruct;
          prop_seqspace_roundtrip;
          prop_seqspace_compare;
        ] );
    ]
