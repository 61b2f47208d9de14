(* Unit tests for the Sublayer.Stats instruments, plus one integration
   check that a lossy ARQ run's retransmit counter agrees with the Notes
   its runtime records in the tracer. *)

let check = Alcotest.check
module Stats = Sublayer.Stats

let test_counters () =
  let reg = Stats.create ~label:"t" () in
  let sc = Stats.scope reg "arq" in
  let c = Stats.counter sc "data_sent" in
  check Alcotest.int "starts at zero" 0 (Stats.value c);
  Stats.incr c;
  Stats.incr c;
  Stats.add c 40;
  check Alcotest.int "incr + add" 42 (Stats.value c);
  (* Find-or-create: the same name must alias the same cell. *)
  let c' = Stats.counter sc "data_sent" in
  Stats.incr c';
  check Alcotest.int "aliased by name" 43 (Stats.value c);
  let other = Stats.counter (Stats.scope reg "arq") "data_sent" in
  Stats.incr other;
  check Alcotest.int "scope aliased by name too" 44 (Stats.value c);
  check Alcotest.int "distinct names distinct cells" 0
    (Stats.value (Stats.counter sc "acks_sent"))

let test_gauges () =
  let sc = Stats.scope (Stats.create ()) "cc" in
  let g = Stats.gauge sc "cwnd_bytes" in
  check Alcotest.int "starts at zero" 0 (Stats.gauge_value g);
  Stats.set g 1460;
  Stats.set g 2920;
  check Alcotest.int "last set wins" 2920 (Stats.gauge_value g)

let test_histograms () =
  let sc = Stats.scope (Stats.create ()) "rd" in
  let h = Stats.histogram sc "rtt_us" in
  List.iter (Stats.observe h) [ 0; 1; 2; 3; 5; 8; 1000 ];
  check Alcotest.int "count" 7 (Stats.hist_count h);
  check Alcotest.int "sum" 1019 (Stats.hist_sum h);
  (* log2 lower bounds: 0,1 -> 1; 2,3 -> 2; 5 -> 4; 8 -> 8; 1000 -> 512. *)
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "bucket layout"
    [ (1, 2); (2, 2); (4, 1); (8, 1); (512, 1) ]
    (Stats.hist_buckets h)

let test_unregistered_scope () =
  (* Machines fall back to an unregistered scope when the caller passes
     no registry: instruments still count, nothing is enumerable. *)
  let sc = Stats.unregistered "arq" in
  let c = Stats.counter sc "data_sent" in
  Stats.incr c;
  check Alcotest.int "still counts" 1 (Stats.value c);
  check Alcotest.string "keeps its name" "arq" (Stats.scope_name sc)

let snapshot_t = Alcotest.(list (pair string int))

let test_snapshot_and_delta () =
  let reg = Stats.create ~label:"host" () in
  let arq = Stats.scope reg "arq" in
  let cm = Stats.scope reg "cm" in
  Stats.add (Stats.counter arq "data_sent") 5;
  Stats.incr (Stats.counter cm "established");
  Stats.set (Stats.gauge cm "phase") 3;
  let before = Stats.snapshot reg in
  check snapshot_t "name-sorted flat pairs"
    [ ("arq.data_sent", 5); ("cm.established", 1); ("cm.phase", 3) ]
    before;
  Stats.add (Stats.counter arq "data_sent") 2;
  Stats.incr (Stats.counter arq "retransmissions");
  let after = Stats.snapshot reg in
  check snapshot_t "delta drops zeros, counts new names from 0"
    [ ("arq.data_sent", 2); ("arq.retransmissions", 1) ]
    (Stats.delta ~before ~after);
  let h = Stats.histogram arq "burst" in
  Stats.observe h 4;
  Stats.observe h 6;
  let snap = Stats.snapshot reg in
  check Alcotest.int "histogram count entry" 2 (List.assoc "arq.burst.count" snap);
  check Alcotest.int "histogram sum entry" 10 (List.assoc "arq.burst.sum" snap)

let test_json () =
  let reg = Stats.create ~label:"a" () in
  Stats.incr (Stats.counter (Stats.scope reg "arq") "data_sent");
  check Alcotest.string "snapshot json" {|{"arq.data_sent":1}|}
    (Stats.snapshot_to_json (Stats.snapshot reg));
  check Alcotest.string "registry json" {|{"label":"a","stats":{"arq.data_sent":1}}|}
    (Stats.to_json reg)

(* --- Per-scope memos --- *)

(* A sublayer-shaped counter record, resolved through one memo. *)
type ctrs = { sent : Stats.counter; lost : Stats.counter }

let builds = ref 0

let ctrs =
  Stats.memo (fun sc ->
      incr builds;
      { sent = Stats.counter sc "sent"; lost = Stats.counter sc "lost" })

(* Every connection on one scope holds the physically same record, built
   once; a hit allocates nothing. Two registries, two recursion levels of
   one registry and two scopes from [unregistered] each keep their own,
   and a second memo on a scope does not disturb the first. *)
let test_memo_per_scope () =
  let reg = Stats.create () in
  let sc = Stats.scope reg "rd" in
  builds := 0;
  let first = Stats.memoised ctrs sc in
  for _ = 1 to 100 do
    check Alcotest.bool "same record per connection" true (Stats.memoised ctrs sc == first)
  done;
  check Alcotest.bool "same record through a fresh scope lookup" true
    (Stats.memoised ctrs (Stats.scope reg "rd") == first);
  check Alcotest.int "built once" 1 !builds;
  check Alcotest.bool "cells are the scope's" true (first.sent == Stats.counter sc "sent");
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Stats.memoised ctrs sc))
  done;
  let words = Gc.minor_words () -. w0 in
  check Alcotest.bool (Printf.sprintf "hits allocate nothing (%.0f words)" words) true
    (words <= 8.);
  let other = Stats.memoised ctrs (Stats.scope (Stats.create ()) "rd") in
  check Alcotest.bool "another registry: its own record" false (other == first);
  check Alcotest.bool "another registry: its own cells" false (other.sent == first.sent);
  let level l = Sublayer.Instrument.v ~stats:reg ~level:l () in
  let at l = Option.get (Sublayer.Instrument.scope (level l) "rd") in
  check Alcotest.bool "level 0 is the bare scope" true (Stats.memoised ctrs (at 0) == first);
  let l1 = Stats.memoised ctrs (at 1) in
  check Alcotest.bool "level 1: its own record" false (l1 == first);
  check Alcotest.bool "level 1: one record per level" true (Stats.memoised ctrs (at 1) == l1);
  let u1 = Stats.unregistered "rd" and u2 = Stats.unregistered "rd" in
  let r1 = Stats.memoised ctrs u1 in
  check Alcotest.bool "unregistered: its own record" false (Stats.memoised ctrs u2 == r1);
  check Alcotest.bool "unregistered: kept" true (Stats.memoised ctrs u1 == r1);
  let gauge = Stats.memo (fun sc -> Stats.gauge sc "window") in
  let g = Stats.memoised gauge sc in
  check Alcotest.bool "second memo: its own value" true (Stats.memoised gauge sc == g);
  check Alcotest.bool "second memo: first kept" true (Stats.memoised ctrs sc == first)

(* Two domains resolving the same fresh scopes at once both get the
   value that was published first: a loser of the compare-and-set
   re-reads and takes the winner's. *)
let test_memo_two_domains () =
  let cells = Stats.memo (fun _ -> ref 0) in
  let scopes = Array.init 2_000 (fun i -> Stats.unregistered (string_of_int i)) in
  let resolve () = Array.map (Stats.memoised cells) scopes in
  let other = Domain.spawn resolve in
  let mine = resolve () in
  let theirs = Domain.join other in
  check Alcotest.bool "one value per scope" true
    (Array.for_all2 ( == ) mine theirs)

(* --- Integration: counters vs. the Note instants in the tracer --- *)

let test_arq_retransmits_match_trace () =
  (* Drive a go-back-n link over a lossy channel with both a tracer and a
     stats registry attached; the [arq.retransmissions] counter must
     agree with the number of "retransmit" Notes the runtime records in
     the tracer, per endpoint. *)
  let engine = Sim.Engine.create ~seed:7 () in
  let tracer = Sim.Tracer.create () in
  let stats_a = Stats.create ~label:"A" () in
  let stats_b = Stats.create ~label:"B" () in
  let link =
    Datalink.Stack.link engine ~tracer ~stats_a ~stats_b
      (Sim.Channel.lossy 0.2) Datalink.Stack.default_spec
  in
  let payloads = List.init 40 (Printf.sprintf "payload %d") in
  let received = Datalink.Stack.transfer engine link payloads in
  check Alcotest.int "transfer completed" 40 (List.length received);
  let retx reg = List.assoc_opt "arq.retransmissions" (Stats.snapshot reg) in
  let counted r = Option.value ~default:0 (retx r) in
  check Alcotest.bool "lossy run actually retransmitted" true
    (counted stats_a > 0);
  (* The stack combinator prefixes machine notes with the sublayer name,
     so the ARQ's note reads "arq-gbn: retransmit ...". *)
  let notes track =
    List.length
      (List.filter
         (fun (sp : Sim.Tracer.span) ->
           sp.sp_sublayer = "note" && sp.sp_track = track
           && String.starts_with ~prefix:"arq-gbn: retransmit" sp.sp_name)
         (Sim.Tracer.spans tracer))
  in
  check Alcotest.int "A counter matches trace" (notes "A") (counted stats_a);
  check Alcotest.int "B counter matches trace" (notes "B") (counted stats_b);
  (* The counts above read the ring's window: it must hold the whole run. *)
  check Alcotest.int "nothing evicted" 0 (Sim.Tracer.dropped tracer)

let () =
  Alcotest.run "stats"
    [
      ( "instruments",
        [
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "gauges" `Quick test_gauges;
          Alcotest.test_case "histograms" `Quick test_histograms;
          Alcotest.test_case "unregistered scope" `Quick test_unregistered_scope;
        ] );
      ( "memo",
        [
          Alcotest.test_case "one record per scope" `Quick test_memo_per_scope;
          Alcotest.test_case "two domains, one value" `Quick test_memo_two_domains;
        ] );
      ( "reports",
        [
          Alcotest.test_case "snapshot + delta" `Quick test_snapshot_and_delta;
          Alcotest.test_case "json" `Quick test_json;
        ] );
      ( "integration",
        [
          Alcotest.test_case "arq retransmits match trace" `Quick
            test_arq_retransmits_match_trace;
        ] );
    ]
