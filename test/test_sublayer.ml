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
   a run over a bounded time fires a bounded number of them; its delay
   depends on the message alone, not the state. [T_raise]
   raises [Boom] on every seventh message and is a note otherwise. *)
type template = T_up | T_down | T_set of int | T_cancel of int | T_note | T_raise

exception Boom

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
      | T_set k -> Machine.Set_timer (k, Float.of_int (1 + ((m + kind) land 7)) *. 0.125)
      | T_cancel k -> Machine.Cancel_timer k
      | T_note -> Machine.Note (Printf.sprintf "%d@%d" kind m)
      | T_raise -> if m mod 7 = 3 then raise Boom else Machine.Note "calm"
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

  let noting step ~traced sc t x =
    let out = C3.out sc in
    let start = out.Runtime.Out.fill in
    let t = step ~traced sc t x in
    for i = start to out.fill - 1 do
      if out.refs.(i) <> Runtime.Out.held then
        match Runtime.Out.made_at out i with Made (Machine.Note _) -> noted := true | Made _ -> ()
    done;
    t

  let up_req ~traced sc t r = noting C3.up_req ~traced sc t r
  let down_ind ~traced sc t i = noting C3.down_ind ~traced sc t i
  let timer ~traced sc t tm = noting C3.timer ~traced sc t tm
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

(* --- Compose drain = reference drain under re-entry --- *)

(* Two endpoints of one declaration on one engine, whose deliveries call
   back into them: the three ways a segment is left before it is read
   to its end. Under [Reenter] a delivery calls [from_above] on its own
   endpoint or on the other one, at most two deep; under [Halt] a
   delivery halts its endpoint, dropping the rest of the segment; under
   [Raise] the scripts raise [Boom], in a step the test started or in
   one a delivery started, and the caller catches it and goes on. The
   raising scripts have one entry each, so what a machine does does not
   depend on the state a raise leaves: a composed level keeps what its
   sublayers did before the raise, the reference keeps nothing. A
   segment a raise or a halt cut short must not be read again, nor one
   a re-entrant step left behind. *)
type mode = Reenter | Halt | Raise

let gen_reentry =
  QCheck2.Gen.(
    let* mode = oneofl [ Reenter; Halt; Raise ] in
    let template =
      frequency
        ([ (3, pure T_up); (3, pure T_down); (1, map (fun k -> T_set k) (0 -- 2));
           (1, map (fun k -> T_cancel k) (0 -- 2)); (1, pure T_note) ]
        @ if mode = Raise then [ (2, pure T_raise) ] else [])
    in
    let entries = if mode = Raise then pure 1 else 1 -- 4 in
    let feed =
      frequency
        [ (3, map (fun m -> From_above m) (0 -- 99)); (3, map (fun m -> From_below m) (0 -- 99));
          (2, map (fun d -> Wait d) (1 -- 8)) ]
    in
    triple (pure mode)
      (array_repeat 3 (array_size entries (list_size (0 -- 3) template)))
      (list_size (1 -- 8) feed))

type twin = { up2 : int -> unit; down2 : int -> unit; halt2 : unit -> unit }

(* Feed two endpoints on a fresh engine, message [m] to endpoint
   [m land 1], then let their timers run out. What is compared: the
   calls and taps as before, every transmission, delivery and caught
   raise with its endpoint and virtual time, and the notes with their
   tracks. *)
let drive_twins mode make feeds =
  calls := [];
  tap_log := [];
  let engine = Sim.Engine.create () in
  let tracer = Sim.Tracer.create () in
  let out = ref [] in
  let log x = out := (Sim.Engine.now engine, x) :: !out in
  let twins = [| None; None |] in
  let twin k = Option.get twins.(k) in
  let caught k f = try f () with Boom -> log (`Raised k) in
  let depth = ref 0 in
  let deliver k m =
    log (`Rx (k, m));
    match mode with
    | Halt -> if m mod 3 = 1 then (twin k).halt2 ()
    | Reenter | Raise ->
        if !depth < 2 && m mod 3 <> 2 then begin
          let k' = if m mod 3 = 0 then k else 1 - k in
          incr depth;
          caught k' (fun () -> (twin k').up2 (m + 1 + k'));
          decr depth
        end
  in
  for k = 0 to 1 do
    twins.(k) <-
      Some (make engine tracer ~name:(string_of_int k) ~transmit:(fun r -> log (`Tx (k, r)))
              ~deliver:(deliver k))
  done;
  let wait d =
    let until = Sim.Engine.now engine +. (Float.of_int d *. 0.125) in
    let rec go tries =
      match Sim.Engine.run ~max_events:2_000 ~until engine with
      | () -> ()
      | exception Boom ->
          log (`Raised (-1));
          if tries > 0 then go (tries - 1)
    in
    go 100
  in
  List.iter
    (function
      | From_above m -> caught (m land 1) (fun () -> (twin (m land 1)).up2 m)
      | From_below m -> caught (m land 1) (fun () -> (twin (m land 1)).down2 m)
      | Wait d -> wait d)
    feeds;
  wait 16;
  let notes =
    List.map
      (fun (sp : Sim.Tracer.span) -> (sp.sp_start, sp.sp_track, sp.sp_name))
      (Sim.Tracer.spans tracer)
  in
  (List.rev !calls, List.rev !tap_log, List.rev !out, notes)

let composed_twin engine tracer ~name ~transmit ~deliver =
  let ins = Instrument.v ~tracer () in
  let r = Run3.create engine ~ins ~name ~transmit ~deliver (parts3 (tap_at 0)) in
  { up2 = Run3.from_above r; down2 = Run3.from_below r; halt2 = (fun () -> Run3.halt r) }

let reference_twin engine tracer ~name ~transmit ~deliver =
  let r =
    Ref3.create engine ~tracer ~name ~transmit ~deliver (0, (tap_at 0, (0, (tap_at 1, 0))))
  in
  { up2 = Ref3.from_above r; down2 = Ref3.from_below r; halt2 = (fun () -> Ref3.halt r) }

(* The reference nesting on the list-applying runtime [Runtime.Make]
   replaced, which shares no code with the segment applier. *)
module Listed3 =
  Runtime_oracle.Make
    (Machine.Stack (M0) (Machine.Stack (Tap) (Machine.Stack (M1) (Machine.Stack (Tap) (M2)))))

let listed_twin engine tracer ~name ~transmit ~deliver =
  let r =
    Listed3.create engine ~tracer ~name ~transmit ~deliver (0, (tap_at 0, (0, (tap_at 1, 0))))
  in
  { up2 = Listed3.from_above r; down2 = Listed3.from_below r; halt2 = (fun () -> Listed3.halt r) }

let prop_reentry_matches_stack =
  qtest ~count:1000 "seam = stack over probe, re-entered" gen_reentry
    (fun (mode, script, feeds) ->
      scripts := script;
      let reference = drive_twins mode reference_twin feeds in
      drive_twins mode composed_twin feeds = reference
      && reference = drive_twins mode listed_twin feeds)

(* --- What a crossing allocates --- *)

(* A sublayer whose handlers return the same preallocated pair on every
   call: its steps allocate nothing, so what a step of a stack of them
   allocates is the composer's and the runtime's. *)
module Canned (C : sig
  val name : string
  val on_req : (int, int, int) Machine.action list
  val on_ind : (int, int, int) Machine.action list
end) =
struct
  let name = C.name
  let scope = C.name

  type t = unit
  type up_req = int
  type up_ind = int
  type down_req = int
  type down_ind = int
  type timer = int

  let req = ((), C.on_req)
  let ind = ((), C.on_ind)
  let handle_up_req () _ = req
  let handle_down_ind () _ = ind
  let handle_timer () _ = ((), [])
end

module Z0 = Canned (struct
  let name = "z0"
  let on_req = Machine.[ Down 0; Set_timer (2, 1.0) ]
  let on_ind = Machine.[ Up 1; Cancel_timer 2 ]
end)

module Z1 = Canned (struct
  let name = "z1"
  let on_req = Machine.[ Down 10; Cancel_timer 1 ]
  let on_ind = Machine.[ Up 11; Set_timer (1, 0.25) ]
end)

module Z2 = Canned (struct
  let name = "z2"
  let on_req = Machine.[ Down 20; Set_timer (0, 0.5); Up 21 ]
  let on_ind = Machine.[ Up 22 ]
end)

module Z = Compose.Seam (Z0) (Tap) (Compose.Seam (Z1) (Tap) (Compose.Last (Z2)))
module Z_run = Compose.Run (Z)

(* What [Z] hands the runtime, as one machine's preallocated lists, the
   timers numbered by the sublayer that owns them: a request crosses
   every seam twice each way, an indication climbs the whole stack. *)
module Flat = Canned (struct
  let name = "flat"

  let on_req =
    Machine.
      [ Down 20; Set_timer (0, 0.5); Up 1; Cancel_timer 2; Set_timer (1, 0.25); Cancel_timer 1;
        Set_timer (2, 1.0) ]

  let on_ind = Machine.[ Up 1; Cancel_timer 2; Set_timer (1, 0.25) ]
end)

module Flat_rt = Runtime.Make (Flat)

(* A step through [Compose.Run] allocates at most what [Runtime.Make]
   allocates for the same actions at the top: the engine's events, the
   timer entries and the 3-word key each timer gets where it leaves its
   sublayer, 5 per request and 2 per indication here (95.9 words for the
   pair at both). The list-building drain it replaced allocated 199.9. *)
let test_crossing_allocates_tags_only () =
  let words step =
    for _ = 1 to 10 do
      step ()
    done;
    let n = 1_000 in
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      step ()
    done;
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  let composed =
    let r =
      Z_run.create (Sim.Engine.create ()) ~ins:Instrument.none ~name:"z" ~transmit:ignore
        ~deliver:ignore
        ((), probe Tap.inert, ((), probe Tap.inert, ()))
    in
    words (fun () ->
        Z_run.from_above r 0;
        Z_run.from_below r 0)
  in
  let flat =
    let r = Flat_rt.create (Sim.Engine.create ()) ~name:"z" ~transmit:ignore ~deliver:ignore () in
    words (fun () ->
        Flat_rt.from_above r 0;
        Flat_rt.from_below r 0)
  in
  check Alcotest.bool
    (Printf.sprintf "%.1f words per request and indication, %.1f for their actions at the top"
       composed flat)
    true
    (composed <= flat)

(* A sublayer of strings that makes a fresh one for everything it hands
   on and keeps it in [made] weakly; with [raises], an indication that
   begins with 'x' raises. *)
let made = Weak.create 256
let n_made = ref 0

module Strings (N : sig
  val name : string
  val raises : bool
end) =
struct
  let name = N.name
  let scope = N.name

  type t = unit
  type up_req = string
  type up_ind = string
  type down_req = string
  type down_ind = string
  type timer = int

  let fresh s =
    let s = s ^ name in
    Weak.set made !n_made (Some s);
    incr n_made;
    s

  let handle_up_req () s = ((), [ Machine.Down (fresh s); Machine.Set_timer (0, 1.0) ])

  let handle_down_ind () s =
    if N.raises && s.[0] = 'x' then raise Boom else ((), [ Machine.Up (fresh s); Machine.Cancel_timer 0 ])

  let handle_timer () _ = ((), [])
end

module S0 = Strings (struct let name = "s0" let raises = true end)
module S1 = Strings (struct let name = "s1" let raises = false end)

module Str_tap = Machine.Probe (struct
  type req = string
  type ind = string

  let name = "tap"
end)

module Str_run = Compose.Run (Compose.Seam (S0) (Str_tap) (Compose.Last (S1)))

(* Once a step is over, the buffers it went through keep none of the
   values it handed on: not those it applied, and not those a raise cut
   short in a lower level's segment. *)
let test_released_slots_keep_nothing () =
  n_made := 0;
  let r =
    Str_run.create (Sim.Engine.create ()) ~ins:Instrument.none ~name:"s" ~transmit:ignore
      ~deliver:ignore
      ((), (fun ?alloc:_ _ ~conn:_ -> Str_tap.inert), ())
  in
  for i = 1 to 20 do
    let m = String.make 1 (if i mod 4 = 0 then 'x' else 'a') in
    Str_run.from_above r (m ^ string_of_int i);
    try Str_run.from_below r (m ^ string_of_int i) with Boom -> ()
  done;
  Gc.full_major ();
  let alive = ref 0 in
  for i = 0 to !n_made - 1 do
    if Weak.check made i then incr alive
  done;
  check Alcotest.int (Printf.sprintf "of %d values handed on, alive" !n_made) 0 !alive

(* The store's slots too: a request's step ends with the [Down] [S1]
   made in a slot no later action writes over, so only the drop after
   the step lets it go. *)
let test_store_slots_keep_nothing () =
  n_made := 0;
  let r =
    Str_run.create (Sim.Engine.create ()) ~ins:Instrument.none ~name:"s" ~transmit:ignore
      ~deliver:ignore
      ((), (fun ?alloc:_ _ ~conn:_ -> Str_tap.inert), ())
  in
  Str_run.from_above r "a";
  Gc.full_major ();
  let alive = ref 0 in
  for i = 0 to !n_made - 1 do
    if Weak.check made i then incr alive
  done;
  check Alcotest.int (Printf.sprintf "of %d values handed on, alive" !n_made) 0 !alive

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

(* A machine that re-arms one timer on every request, written straight
   to the runtime: its step writes a key and an action made once, so it
   allocates nothing. ([Runtime.Make] tags a sublayer's timer at every
   step, one 3-word key a re-arm.) *)
type Runtime.key += Tick

module RearmRt = Runtime.Drive (struct
  type t = unit
  type up_req = unit
  type up_ind = unit
  type down_req = unit
  type down_ind = unit
  type scratch = (unit, unit) Runtime.Out.t

  let scratch () = Runtime.Out.create (Runtime.Out.store ())
  let out b = b
  let reset _ = ()
  let arm = Machine.Set_timer ((), 1.0)
  let up_req ~traced:_ b () () = Runtime.Out.timer b Tick arm
  let down_ind ~traced:_ _ () () = ()
  let timer ~traced:_ _ () _ = ()
end)

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
          prop_reentry_matches_stack;
          Alcotest.test_case "crossing allocates tags only" `Quick
            test_crossing_allocates_tags_only;
          Alcotest.test_case "released slots keep nothing" `Quick
            test_released_slots_keep_nothing;
          Alcotest.test_case "store slots keep nothing" `Quick test_store_slots_keep_nothing;
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
