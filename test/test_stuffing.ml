(* Tests for the verified-style stuffing development: the executable
   lemma suite, the exact automaton checker, the search, the overhead
   analysis, and agreement between the extraction-style and fast codecs. *)

open Stuffing

let check = Alcotest.check
let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let bits = Rule.bits_of_string
let show = Rule.string_of_bits

(* --- Rule basics --- *)

let test_well_formed () =
  check Alcotest.bool "hdlc" true (Rule.rule_well_formed Rule.hdlc.rule);
  check Alcotest.bool "paper best" true (Rule.rule_well_formed Rule.paper_best.rule);
  check Alcotest.bool "empty trigger" false
    (Rule.rule_well_formed { Rule.trigger = []; stuff = false });
  (* stuffing a 1 after 11111 recreates the trigger: diverges *)
  check Alcotest.bool "non-terminating" false
    (Rule.rule_well_formed { Rule.trigger = bits "11111"; stuff = true })

(* --- Codec on HDLC worked examples --- *)

let test_hdlc_stuffing_examples () =
  let stuff d = show (Codec.stuff Rule.hdlc.rule (bits d)) in
  check Alcotest.string "five ones get a zero" "111110" (stuff "11111");
  check Alcotest.string "six ones" "1111101" (stuff "111111");
  check Alcotest.string "ten ones: two stuffs" "111110111110" (stuff "1111111111");
  check Alcotest.string "no trigger untouched" "101010" (stuff "101010");
  check Alcotest.string "flag data gets broken up" "011111001" (stuff "01111101")

let test_hdlc_unstuff_rejects () =
  let r = Rule.hdlc.rule in
  (* ends on naked trigger *)
  check Alcotest.(option (list bool)) "truncated" None (Codec.unstuff r (bits "11111"));
  (* trigger followed by the wrong bit *)
  check Alcotest.(option (list bool)) "wrong stuffed bit" None
    (Codec.unstuff r (bits "111111"))

let test_encode_example () =
  (* flag ++ stuffed ++ flag *)
  let e = Codec.encode Rule.hdlc (bits "11111") in
  check Alcotest.string "framed" ("01111110" ^ "111110" ^ "01111110") (show e)

let test_decode_garbage () =
  check Alcotest.bool "no flags" true (Codec.decode Rule.hdlc (bits "10101010") = None);
  check Alcotest.bool "only one flag" true
    (Codec.decode Rule.hdlc (bits "01111110") = None);
  check Alcotest.bool "empty" true (Codec.decode Rule.hdlc [] = None)

(* --- The lemma suite: every lemma must hold. --- *)

let lemma_cases =
  List.map
    (fun l ->
      Alcotest.test_case (l.Lemmas.sublayer ^ "/" ^ l.Lemmas.lname) `Slow (fun () ->
          if not (l.Lemmas.check ()) then Alcotest.failf "lemma %s failed" l.Lemmas.lname))
    Lemmas.all

let test_lemma_census () =
  (* The paper's proof had 57 lemmas; ours is a comparable census. *)
  check Alcotest.bool "substantial suite" true (List.length Lemmas.all >= 40);
  let subs = List.sort_uniq compare (List.map (fun l -> l.Lemmas.sublayer) Lemmas.all) in
  check Alcotest.(list string) "stratified by sublayer"
    [ "composition"; "flag"; "meta"; "stuffing" ] subs

(* --- Automaton checker --- *)

let test_checker_hdlc_valid () =
  check Alcotest.bool "hdlc" true (Automaton.valid Rule.hdlc);
  check Alcotest.bool "paper best" true (Automaton.valid Rule.paper_best)

let test_checker_violations () =
  (* stuffed stream can spell the flag *)
  let bad = { Rule.flag = bits "01111110"; rule = { Rule.trigger = bits "110"; stuff = true } } in
  check Alcotest.bool "flag in data" true (Automaton.check bad = Error Automaton.Flag_in_data);
  (* trigger shorter than the flag's run, wrong stuff bit direction *)
  let bad2 = { Rule.flag = bits "01111110"; rule = { Rule.trigger = bits "0"; stuff = false } } in
  (* stuffing 0 after every 0 can never produce 6 ones? it can; the rule
     is judged by the machine, whatever the verdict it must agree with
     brute force below *)
  ignore bad2;
  let nonterm = { Rule.flag = bits "01111110"; rule = { Rule.trigger = bits "11111"; stuff = true } } in
  check Alcotest.bool "non-terminating rejected" true
    (Automaton.check nonterm = Error Automaton.Ill_formed_rule)

let test_checker_agrees_with_bruteforce () =
  (* On a sample of candidate schemes, the exact checker and bounded
     exhaustive testing agree in the sound direction: a bounded
     counterexample implies invalid. *)
  let rng = Bitkit.Rng.create 11 in
  let random_scheme () =
    let flag = List.init 8 (fun _ -> Bitkit.Rng.bool rng) in
    let k = 1 + Bitkit.Rng.int rng 6 in
    let trigger = List.init k (fun _ -> Bitkit.Rng.bool rng) in
    { Rule.flag; rule = { Rule.trigger; stuff = Bitkit.Rng.bool rng } }
  in
  for _ = 1 to 200 do
    let s = random_scheme () in
    if Rule.rule_well_formed s.Rule.rule then begin
      match Automaton.find_counterexample s ~max_len:8 with
      | Some cex ->
          if Automaton.valid s then
            Alcotest.failf "checker accepts %s but %s is a counterexample"
              (Format.asprintf "%a" Rule.pp_scheme s)
              (show cex)
      | None -> ()
    end
  done

let test_reachable_states_reported () =
  check Alcotest.bool "hdlc explores a real state space" true
    (Automaton.reachable_states Rule.hdlc > 10)

(* --- Search --- *)

let test_search_structured () =
  let o = Search.run Search.structured_space in
  check Alcotest.int "candidates" 1536 o.Search.candidates;
  check Alcotest.bool "finds many valid schemes" true (o.Search.valid > 500);
  check Alcotest.bool "hdlc among them" true
    (List.exists (Rule.equal_scheme Rule.hdlc) (Search.valid_schemes Search.structured_space))

let test_search_best_sorted () =
  let o = Search.run ~best_limit:5 Search.structured_space in
  let rates = List.map snd o.Search.best in
  check Alcotest.bool "ascending overhead" true (rates = List.sort Float.compare rates);
  check Alcotest.int "limited" 5 (List.length o.Search.best)

let test_search_candidate_count () =
  let space = Search.free_space ~trigger_lens:[ 2 ] in
  (* 256 flags x 4 triggers x 2 stuff bits *)
  check Alcotest.int "count" 2048 (Search.candidate_count space)

(* --- Overhead --- *)

let close a b = Float.abs (a -. b) < 1e-6

let test_overhead_paper_numbers () =
  check Alcotest.bool "hdlc naive 1/32" true (close (Overhead.naive Rule.hdlc.rule) (1. /. 32.));
  check Alcotest.bool "best naive 1/128" true
    (close (Overhead.naive Rule.paper_best.rule) (1. /. 128.));
  check Alcotest.bool "hdlc exact 1/62" true
    (close (Overhead.stationary Rule.hdlc.rule) (1. /. 62.));
  check Alcotest.bool "best exact 1/128" true
    (close (Overhead.stationary Rule.paper_best.rule) (1. /. 128.))

let test_overhead_empirical_close () =
  List.iter
    (fun rule ->
      let a = Overhead.stationary rule in
      let e = Overhead.empirical ~seed:3 rule in
      if Float.abs (a -. e) > 0.1 *. a then
        Alcotest.failf "empirical %.6f vs stationary %.6f" e a)
    [ Rule.hdlc.rule; Rule.paper_best.rule ]

let test_frame_expansion () =
  let x = Overhead.expected_frame_expansion Rule.hdlc ~payload_bits:1000 in
  (* 1000 bits + ~16 stuffed + 16 flag bits *)
  if x < 1015. || x > 1035. then Alcotest.failf "expansion %.1f" x

(* --- Fast codec agrees with the extraction-style codec --- *)

let data_gen = QCheck2.Gen.(list_size (0 -- 300) bool)
let hdlc = Fast.compile Rule.hdlc
let best = Fast.compile Rule.paper_best
let of_list = Bitkit.Bitseq.of_bool_list
let to_list = Bitkit.Bitseq.to_bool_list
let opt_list = Option.map to_list
let schemes = [ (Rule.hdlc, hdlc); (Rule.paper_best, best) ]

let prop_fast_stuff_agrees =
  qtest "fast stuff = codec stuff" data_gen (fun d ->
      List.for_all
        (fun ((sc : Rule.scheme), fast) -> to_list (Fast.stuff fast (of_list d)) = Codec.stuff sc.rule d)
        schemes)

let prop_fast_unstuff_agrees =
  qtest "fast unstuff = codec unstuff" data_gen (fun d ->
      let stuffed = Codec.stuff Rule.paper_best.rule d in
      match Fast.unstuff best (of_list stuffed) with
      | Some b -> to_list b = d
      | None -> false)

let prop_fast_decode_encode =
  qtest "fast decode (fast encode d) = d" data_gen (fun d ->
      let b = of_list d in
      match Fast.decode hdlc (Fast.encode hdlc b) with
      | Some got -> Bitkit.Bitseq.equal got b
      | None -> false)

let prop_fast_rejects_corruption_or_differs =
  qtest "single flip never silently yields the original" data_gen (fun d ->
      match d with
      | [] -> true
      | _ ->
          let b = of_list d in
          let e = Fast.encode hdlc b in
          let flipped = Bitkit.Bitseq.flip e (List.length d / 2) in
          (match Fast.decode hdlc flipped with
          | Some got -> not (Bitkit.Bitseq.equal got b) || Bitkit.Bitseq.equal flipped e
          | None -> true))

(* Every function, on both paper schemes, against the reference: on
   arbitrary bits (mostly garbage to the decoder) and on the framed and
   stuffed streams the encoder makes. *)
let agrees (sc : Rule.scheme) fast d =
  let b = of_list d in
  to_list (Fast.stuff fast b) = Codec.stuff sc.rule d
  && opt_list (Fast.unstuff fast b) = Codec.unstuff sc.rule d
  && to_list (Fast.encode fast b) = Codec.encode sc d
  && opt_list (Fast.decode fast b) = Codec.decode sc d
  && (let e = Codec.encode sc d in
      opt_list (Fast.decode fast (of_list e)) = Codec.decode sc e)
  && (let st = Codec.stuff sc.rule d in
      opt_list (Fast.unstuff fast (of_list st)) = Codec.unstuff sc.rule st)

let prop_fast_all_functions =
  qtest "fast = codec: stuff, unstuff, encode, decode" data_gen (fun d ->
      List.for_all (fun (sc, fast) -> agrees sc fast d) schemes)

(* Frames broken the ways a receiver meets them: noise before the
   opening flag, no closing flag, and a body cut right after a trigger
   so its stuffed bit is missing. *)
let garbage_gen =
  QCheck2.Gen.(triple (list_size (0 -- 40) bool) data_gen (int_bound 2))

let prop_fast_decode_garbage =
  qtest "fast decode = codec decode on broken frames" garbage_gen (fun (noise, d, how) ->
      List.for_all
        (fun ((sc : Rule.scheme), fast) ->
          let broken =
            match how with
            | 0 -> noise @ Codec.encode sc d
            | 1 -> sc.flag @ Codec.stuff sc.rule d @ noise
            | _ -> sc.flag @ d @ sc.rule.trigger @ sc.flag
          in
          opt_list (Fast.decode fast (of_list broken)) = Codec.decode sc broken)
        schemes)

let test_fast_missing_stuffed_bit () =
  let frame sc = sc.Rule.flag @ sc.rule.trigger @ sc.flag in
  check Alcotest.bool "hdlc rejects" true (Fast.decode hdlc (of_list (frame Rule.hdlc)) = None);
  List.iter
    (fun (sc, fast) ->
      let f = frame sc in
      check Alcotest.(option (list bool)) "codec agrees" (Codec.decode sc f)
        (opt_list (Fast.decode fast (of_list f))))
    schemes

(* Random rules, triggers of 1 to 12 bits (callers skip the ill-formed
   ones), random flags of 1 to 24 bits: the one-pass decode's flag search
   then leads its unstuffer by one to four bytes. *)
let rule_gen =
  QCheck2.Gen.(
    map3
      (fun flag trigger stuff -> { Rule.flag; rule = { Rule.trigger; stuff } })
      (list_size (1 -- 24) bool)
      (list_size (1 -- 12) bool)
      bool)

(* The compiled flag search against [Bitseq.find_sub]: flags of 1-16
   bits, self-overlapping ones among them, in random streams where the
   flag is planted in the middle or on the last bits, from any [from]. *)
let flag_search_gen =
  QCheck2.Gen.(
    let* flag =
      oneof
        [ list_size (1 -- 16) bool;
          oneofl (List.map bits [ "0101"; "0110110"; "0"; "11"; "01111110"; "1010101010101010" ]) ]
    in
    let* noise = list_size (0 -- 300) bool and* tail = list_size (0 -- 20) bool in
    let* stream = oneofl [ noise; noise @ flag; noise @ flag @ tail ] in
    let* from = 0 -- List.length stream in
    return (flag, stream, from))

let prop_find_flag =
  qtest ~count:500 "find_flag = Bitseq.find_sub" flag_search_gen (fun (flag, stream, from) ->
      let fast = Fast.compile { Rule.hdlc with flag } in
      let s = of_list stream in
      Fast.find_flag fast ~from s = Bitkit.Bitseq.find_sub ~from ~pattern:(of_list flag) s)

let prop_fast_random_rules =
  qtest ~count:150 "fast = codec on random rules" (QCheck2.Gen.pair rule_gen data_gen)
    (fun (sc, d) ->
      QCheck2.assume (Rule.rule_well_formed sc.Rule.rule);
      agrees sc (Fast.compile sc) d)

(* The kernels' edges: every bit offset of a range inside a larger
   sequence, ranges of 0-16 bits (shorter than the whole-byte loop and
   just past it) and outputs of 24-72 bits (either side of the 32-bit
   stores). Data leans toward ones or zeros so triggers fire. *)
let edge_gen =
  QCheck2.Gen.(
    let* lean = bool in
    let bit = frequency [ (1, bool); (1, return lean) ] in
    let* d = oneof [ list_size (0 -- 16) bit; list_size (24 -- 72) bit ] in
    let* lead = list_size (return 7) bool and* tail = list_size (0 -- 16) bool in
    return (lead, d, tail))

let edges_agree (sc : Rule.scheme) fast (lead, d, tail) =
  let flag = of_list sc.flag in
  let st = Codec.stuff sc.rule d in
  List.for_all
    (fun off ->
      (* [body] at bits [off, off + length body) of a larger sequence *)
      let within body = of_list (List.filteri (fun i _ -> i < off) lead @ body @ tail) in
      let sub body f = f (within body) ~pos:off ~len:(List.length body) in
      let flag_from b =
        List.for_all
          (fun from -> Fast.find_flag fast ~from b = Bitkit.Bitseq.find_sub ~from ~pattern:flag b)
          [ 0; off; Bitkit.Bitseq.length b ]
      in
      opt_list (sub st (Fast.unstuff_sub fast)) = Some d
      && opt_list (sub d (Fast.unstuff_sub fast)) = Codec.unstuff sc.rule d
      && to_list (sub d (Fast.encode_sub fast)) = Codec.encode sc d
      && flag_from (within (Codec.encode sc d))
      && flag_from (within d))
    [ 0; 1; 2; 3; 4; 5; 6; 7 ]
  && to_list (Fast.stuff fast (of_list d)) = st

let prop_fast_edges =
  qtest ~count:200 "fast = codec at every bit offset, short and store-sized"
    QCheck2.Gen.(pair rule_gen edge_gen)
    (fun (random, case) ->
      List.for_all (fun (sc, fast) -> edges_agree sc fast case) schemes
      && ((not (Rule.rule_well_formed random.Rule.rule))
         || edges_agree random (Fast.compile random) case))

(* A payload in place in a larger buffer, as a framer reads it from a
   pool slot, frames exactly like its bytes copied out. *)
let prop_encode_sub_in_place =
  qtest ~count:200 "encode_sub in place = encode of the copied bytes"
    QCheck2.Gen.(
      let* buf = string_size ~gen:char (1 -- 80) in
      let* off = 1 -- String.length buf in
      let* len = 0 -- (String.length buf - off) in
      let* random = rule_gen in
      return (buf, off, len, random))
    (fun (buf, off, len, random) ->
      let copied = Bitkit.Bitseq.of_string (String.sub buf off len) in
      let same fast =
        Bitkit.Bitseq.equal
          (Fast.encode_sub fast (Bitkit.Bitseq.of_string buf) ~pos:(8 * off) ~len:(8 * len))
          (Fast.encode fast copied)
      in
      List.for_all (fun (_, fast) -> same fast) schemes
      && ((not (Rule.rule_well_formed random.Rule.rule)) || same (Fast.compile random)))

(* The C boundary. Every range is checked in OCaml before a kernel runs,
   so a call whose [pos], [len] or [from] is negative, one past the end,
   [max_int] or [min_int] raises [Invalid_argument] exactly when the range
   leaves the sequence, and otherwise returns Codec's answer
   ([Bitseq.find_sub]'s for [find_flag]). The kernels write only buffers
   the call allocates, so the caller's sequence must come back with every
   byte in place. *)

(* [pos, pos+len) lies in [size] bits, decided without the sum
   [pos + len], which overflows at [max_int]. *)
let fits ~pos ~len size = pos >= 0 && len >= 0 && pos <= size && len <= size - pos

let returns ~bad ~expect call =
  match call () with
  | exception Invalid_argument _ -> bad
  | v -> (not bad) && v = expect ()

let hostile_gen =
  QCheck2.Gen.(
    let offset n = frequency [ (3, int_range 0 n); (1, oneofl [ -1; n + 1; max_int; min_int ]) ] in
    let* random = rule_gen in
    let* sc =
      oneofl ([ Rule.hdlc; Rule.paper_best ] @ if Rule.rule_well_formed random.rule then [ random ] else [])
    in
    let* d = list_size (0 -- 120) bool in
    let* stream = oneofl [ d; Codec.encode sc d; d @ Codec.encode sc d ] in
    let n = List.length stream in
    let* pos = offset n and* from = offset n in
    let room = if pos < 0 || pos > n then 0 else n - pos in
    let* len = frequency [ (3, int_range 0 room); (1, oneofl [ -1; room + 1; max_int; min_int ]) ] in
    return (sc, stream, pos, len, from))

let prop_fast_hostile_ranges =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:1000 ~name:"hostile ranges raise or return codec's answer"
       ~print:(fun (sc, stream, pos, len, from) ->
         Printf.sprintf "%s stream=%s pos=%d len=%d from=%d"
           (Format.asprintf "%a" Rule.pp_scheme sc) (show stream) pos len from)
       hostile_gen
       (fun ((sc : Rule.scheme), stream, pos, len, from) ->
         let fast = Fast.compile sc and b = of_list stream and n = List.length stream in
         let before = Bytes.of_string (Bitkit.Bitseq.to_string b) in
         let bad = not (fits ~pos ~len n) in
         let range () = List.filteri (fun i _ -> i >= pos && i - pos < len) stream in
         returns ~bad
           ~expect:(fun () -> Codec.unstuff sc.rule (range ()))
           (fun () -> opt_list (Fast.unstuff_sub fast b ~pos ~len))
         && returns ~bad
              ~expect:(fun () -> Codec.encode sc (range ()))
              (fun () -> to_list (Fast.encode_sub fast b ~pos ~len))
         && returns ~bad:(from < 0 || from > n)
              ~expect:(fun () -> Bitkit.Bitseq.find_sub ~from ~pattern:(of_list sc.flag) b)
              (fun () -> Fast.find_flag fast ~from b)
         && Bytes.equal before (Bytes.of_string (Bitkit.Bitseq.to_string b))))

(* HDLC framing and deframing the datalink workload's 520-byte payload
   allocate only the frame: a worst-case buffer, the exact copy [take]
   makes and their records. Minor words per call (dev profile): [encode]
   156.0 with the OCaml byte loops, 154.0 with the C kernels, whose writer
   is two fields instead of four; [decode] 149.0 with two [find_flag]
   options and the four-field writer, 143.0 with the one-pass kernel. *)
let test_fast_allocation () =
  let payload = Bitkit.Bitseq.of_string (Bitkit.Rng.bytes (Bitkit.Rng.create 5) 520) in
  let frame = Fast.encode hdlc payload in
  let words f =
    f ();
    let calls = 1000 in
    let before = Gc.minor_words () in
    for _ = 1 to calls do
      f ()
    done;
    (Gc.minor_words () -. before) /. float_of_int calls
  in
  let enc = words (fun () -> ignore (Sys.opaque_identity (Fast.encode hdlc payload))) in
  let dec = words (fun () -> ignore (Sys.opaque_identity (Fast.decode hdlc frame))) in
  check Alcotest.bool "decode recovers the payload" true
    (Option.equal Bitkit.Bitseq.equal (Fast.decode hdlc frame) (Some payload));
  (* [Gc.minor_words]'s own boxed result adds 0.002 per call. *)
  check Alcotest.bool (Printf.sprintf "encode 520 B: %.3f words/call" enc) true (enc <= 156.01);
  check Alcotest.bool (Printf.sprintf "decode 520 B: %.3f words/call" dec) true (dec <= 149.01)

(* The transition tables keep the state in 8 bits. *)
let test_fast_trigger_limit () =
  let scheme n = { Rule.hdlc with rule = { Rule.trigger = List.init n (fun _ -> true); stuff = false } } in
  let long = Fast.compile (scheme 255) in
  let d = List.init 600 (fun i -> i mod 300 <> 0) in
  check Alcotest.(list bool) "255-bit trigger stuffs" (Codec.stuff (scheme 255).rule d)
    (to_list (Fast.stuff long (of_list d)));
  check Alcotest.bool "256-bit trigger rejected" true
    (match Fast.compile (scheme 256) with
     | _ -> false
     | exception Invalid_argument _ -> true)

let () =
  Alcotest.run "stuffing"
    [
      ("rules", [ Alcotest.test_case "well-formedness" `Quick test_well_formed ]);
      ( "codec",
        [
          Alcotest.test_case "hdlc examples" `Quick test_hdlc_stuffing_examples;
          Alcotest.test_case "unstuff rejects" `Quick test_hdlc_unstuff_rejects;
          Alcotest.test_case "encode example" `Quick test_encode_example;
          Alcotest.test_case "decode garbage" `Quick test_decode_garbage;
        ] );
      ("lemmas", Alcotest.test_case "census" `Quick test_lemma_census :: lemma_cases);
      ( "automaton",
        [
          Alcotest.test_case "valid schemes" `Quick test_checker_hdlc_valid;
          Alcotest.test_case "violations" `Quick test_checker_violations;
          Alcotest.test_case "agrees with brute force" `Slow test_checker_agrees_with_bruteforce;
          Alcotest.test_case "state-space size" `Quick test_reachable_states_reported;
        ] );
      ( "search",
        [
          Alcotest.test_case "structured space" `Slow test_search_structured;
          Alcotest.test_case "best sorted" `Slow test_search_best_sorted;
          Alcotest.test_case "candidate count" `Quick test_search_candidate_count;
        ] );
      ( "overhead",
        [
          Alcotest.test_case "paper numbers" `Quick test_overhead_paper_numbers;
          Alcotest.test_case "empirical close" `Quick test_overhead_empirical_close;
          Alcotest.test_case "frame expansion" `Quick test_frame_expansion;
        ] );
      ( "fast",
        [
          prop_fast_stuff_agrees;
          prop_fast_unstuff_agrees;
          prop_fast_decode_encode;
          prop_fast_rejects_corruption_or_differs;
          prop_fast_all_functions;
          prop_fast_decode_garbage;
          Alcotest.test_case "missing stuffed bit" `Quick test_fast_missing_stuffed_bit;
          prop_fast_random_rules;
          prop_find_flag;
          prop_fast_edges;
          prop_encode_sub_in_place;
          prop_fast_hostile_ranges;
          Alcotest.test_case "framing allocates only the frame" `Quick test_fast_allocation;
          Alcotest.test_case "trigger limit" `Quick test_fast_trigger_limit;
        ] );
    ]
