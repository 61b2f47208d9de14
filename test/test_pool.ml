(* The buffer arena under the pooled emit path: loan/release round
   trips, counter correctness (HWM, overruns), refcounting and deferred
   release, the misuse detectors (double release raises, debug mode
   poisons freed slots), and the heap fallback — an exhausted pool must
   degrade to ordinary allocation with identical bytes, never fail. *)

open Bitkit

let check = Alcotest.check

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let payload_gen = QCheck2.Gen.(string_size ~gen:char (0 -- 64))

(* --- loan / release round trips --- *)

let test_roundtrip () =
  let p = Pool.create ~slots:4 ~slot_bytes:64 () in
  let s = Pool.loan p ~len:10 in
  check Alcotest.bool "loan grants a real slot" true (s <> Pool.no_slot);
  check Alcotest.int "one in use" 1 (Pool.in_use p);
  Bytes.blit_string "0123456789" 0 (Pool.buffer p) (Pool.off p s) 10;
  check Alcotest.string "slice reads the written bytes" "0123456789"
    (Slice.to_string (Pool.slice p s ~len:10));
  Pool.release p s;
  check Alcotest.int "none in use" 0 (Pool.in_use p);
  check Alcotest.int "one loan counted" 1 (Pool.loans p);
  check Alcotest.int "one release counted" 1 (Pool.releases p);
  check Alcotest.int "no overruns" 0 (Pool.overruns p)

let test_hwm () =
  let p = Pool.create ~slots:8 ~slot_bytes:16 () in
  let batch n = List.init n (fun _ -> Pool.loan p ~len:8) in
  let a = batch 3 in
  List.iter (Pool.release p) a;
  check Alcotest.int "hwm after 3 concurrent" 3 (Pool.hwm p);
  let b = batch 5 in
  List.iter (Pool.release p) b;
  check Alcotest.int "hwm rises to 5" 5 (Pool.hwm p);
  let c = batch 2 in
  List.iter (Pool.release p) c;
  check Alcotest.int "hwm is a high-water mark, not current" 5 (Pool.hwm p);
  check Alcotest.int "in_use drained" 0 (Pool.in_use p)

let test_exhaustion_then_reuse () =
  let p = Pool.create ~slots:2 ~slot_bytes:16 () in
  let a = Pool.loan p ~len:8 and b = Pool.loan p ~len:8 in
  check Alcotest.bool "both granted" true
    (a <> Pool.no_slot && b <> Pool.no_slot);
  check Alcotest.int "exhausted pool refuses" Pool.no_slot (Pool.loan p ~len:8);
  check Alcotest.int "refusal counted as overrun" 1 (Pool.overruns p);
  Pool.release p a;
  let c = Pool.loan p ~len:8 in
  check Alcotest.int "released slot is reused" a c;
  Pool.release p b;
  Pool.release p c;
  (* An oversized request is an overrun even with the pool empty. *)
  check Alcotest.int "oversized request refused" Pool.no_slot
    (Pool.loan p ~len:17);
  check Alcotest.int "oversized counted too" 2 (Pool.overruns p)

(* --- refcounting and deferred release --- *)

let test_retain () =
  let p = Pool.create ~slots:2 ~slot_bytes:16 () in
  let s = Pool.loan p ~len:8 in
  Pool.retain p s;
  Pool.release p s;
  check Alcotest.int "retained slot survives one release" 1 (Pool.in_use p);
  Pool.release p s;
  check Alcotest.int "final release frees it" 0 (Pool.in_use p)

let test_defer () =
  let p = Pool.create ~slots:2 ~slot_bytes:16 () in
  let s = Pool.loan p ~len:8 in
  Pool.defer_release p s;
  check Alcotest.int "deferred release has not run" 1 (Pool.in_use p);
  check Alcotest.string "slot still readable while deferred" ""
    (Slice.to_string (Pool.slice p s ~len:0));
  Pool.drain_deferred p;
  check Alcotest.int "drain applies it" 0 (Pool.in_use p);
  (* Draining an empty queue is a no-op (the engine hook fires after
     every event, loans or not). *)
  Pool.drain_deferred p

(* --- misuse detectors --- *)

let test_double_release_raises () =
  let p = Pool.create ~slots:2 ~slot_bytes:16 () in
  let s = Pool.loan p ~len:8 in
  Pool.release p s;
  check Alcotest.bool "double release raises" true
    (match Pool.release p s with
    | () -> false
    | exception Invalid_argument _ -> true);
  check Alcotest.bool "releasing a never-loaned slot raises" true
    (match Pool.release p (s + 1) with
    | () -> false
    | exception Invalid_argument _ -> true);
  check Alcotest.bool "retaining a free slot raises" true
    (match Pool.retain p s with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_debug_poison () =
  let p = Pool.create ~debug:true ~slots:1 ~slot_bytes:8 () in
  let s = Pool.loan p ~len:8 in
  Bytes.blit_string "AAAAAAAA" 0 (Pool.buffer p) (Pool.off p s) 8;
  Pool.release p s;
  (* A use-after-release read sees the poison pattern, not stale data —
     silent aliasing becomes loud corruption in tests. *)
  check Alcotest.string "released slot is poisoned"
    (String.make 8 '\xDE')
    (Bytes.sub_string (Pool.buffer p) (Pool.off p s) 8);
  let p' = Pool.create ~slots:1 ~slot_bytes:8 () in
  let s' = Pool.loan p' ~len:8 in
  Bytes.blit_string "BBBBBBBB" 0 (Pool.buffer p') (Pool.off p' s') 8;
  Pool.release p' s';
  check Alcotest.string "non-debug pool leaves bytes alone" "BBBBBBBB"
    (Bytes.sub_string (Pool.buffer p') (Pool.off p' s') 8)

(* --- slot recovery from slices --- *)

let test_slot_of_slice () =
  let p = Pool.create ~slots:4 ~slot_bytes:16 () in
  let s = Pool.loan p ~len:12 in
  let sl = Pool.slice p s ~len:12 in
  check (Alcotest.option Alcotest.int) "slice maps back to its slot" (Some s)
    (Pool.slot_of_slice p sl);
  check (Alcotest.option Alcotest.int) "a narrowed view still maps"
    (Some s)
    (Pool.slot_of_slice p (Slice.sub sl ~pos:2 ~len:4));
  check (Alcotest.option Alcotest.int) "a heap slice does not" None
    (Pool.slot_of_slice p (Slice.of_string "not from the arena"));
  let q = Pool.create ~slots:4 ~slot_bytes:16 () in
  check (Alcotest.option Alcotest.int) "another pool's slice does not" None
    (Pool.slot_of_slice q sl);
  Pool.release p s

(* --- properties --- *)

let prop_tests =
  [ (* Writing through a loan and reading through its slice is the
       identity, at every slot the pool can grant. *)
    qtest "loaned slot stores and returns exact bytes"
      QCheck2.Gen.(pair payload_gen (0 -- 3))
      (fun (data, extra) ->
        let p = Pool.create ~slots:4 ~slot_bytes:64 () in
        (* Occupy a few slots first so the tested loan lands at varying
           offsets in the arena. *)
        let held = List.init extra (fun _ -> Pool.loan p ~len:1) in
        let s = Pool.loan p ~len:(String.length data) in
        Bytes.blit_string data 0 (Pool.buffer p) (Pool.off p s)
          (String.length data);
        let back = Slice.to_string (Pool.slice p s ~len:(String.length data)) in
        Pool.release p s;
        List.iter (Pool.release p) held;
        back = data);
    (* The emit fallback: an exhausted pool must produce the exact same
       bytes as a granted slot, just from the heap. *)
    qtest "overrun fallback emits identical bytes" payload_gen (fun data ->
        let wb =
          Wirebuf.push (Wirebuf.of_string data) ~owner:"t" "\x01\x02\x03"
        in
        let roomy = Pool.create ~slots:2 ~slot_bytes:128 () in
        let slot, pooled = Wirebuf.emit_pooled wb roomy in
        let starved = Pool.create ~slots:1 ~slot_bytes:128 () in
        let hold = Pool.loan starved ~len:1 in
        let slot', heap = Wirebuf.emit_pooled wb starved in
        let ok =
          slot <> Pool.no_slot
          && slot' = Pool.no_slot
          && Slice.to_string pooled = Wirebuf.to_string wb
          && Slice.to_string heap = Wirebuf.to_string wb
          && Pool.overruns starved = 1
        in
        if slot <> Pool.no_slot then Pool.release roomy slot;
        Pool.release starved hold;
        ok);
    (* Loan/release in random interleavings: in_use tracks exactly, and
       every grant is a distinct live slot. *)
    qtest "random interleaving keeps counters exact"
      QCheck2.Gen.(list_size (1 -- 40) bool)
      (fun ops ->
        let p = Pool.create ~slots:4 ~slot_bytes:8 () in
        let live = ref [] in
        let ok = ref true in
        List.iter
          (fun is_loan ->
            if is_loan then begin
              let s = Pool.loan p ~len:4 in
              if s <> Pool.no_slot then begin
                if List.mem s !live then ok := false;
                live := s :: !live
              end
              else if List.length !live < 4 then ok := false
            end
            else
              match !live with
              | [] -> ()
              | s :: rest ->
                  Pool.release p s;
                  live := rest)
          ops;
        let n = List.length !live in
        if Pool.in_use p <> n then ok := false;
        List.iter (Pool.release p) !live;
        !ok && Pool.in_use p = 0 && Pool.loans p = Pool.releases p)
  ]

let () =
  Alcotest.run "pool"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "loan/release round trip" `Quick test_roundtrip;
          Alcotest.test_case "high-water mark" `Quick test_hwm;
          Alcotest.test_case "exhaustion, overrun, reuse" `Quick
            test_exhaustion_then_reuse;
          Alcotest.test_case "retain adds a reference" `Quick test_retain;
          Alcotest.test_case "deferred release waits for drain" `Quick
            test_defer;
        ] );
      ( "misuse",
        [
          Alcotest.test_case "double release raises" `Quick
            test_double_release_raises;
          Alcotest.test_case "debug mode poisons freed slots" `Quick
            test_debug_poison;
        ] );
      ( "slices",
        [ Alcotest.test_case "slot_of_slice recovery" `Quick test_slot_of_slice ]
      );
      ("properties", prop_tests);
    ]
