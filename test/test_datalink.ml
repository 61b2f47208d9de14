(* Tests for the data-link sublayers: detectors, framers, line codes,
   the three ARQ machines, MAC, and the composed stack with every
   mechanism swapped (experiments E1 and E14). *)

open Datalink

let check = Alcotest.check
let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let payload_gen = QCheck2.Gen.(string_size ~gen:char (0 -- 300))

(* --- Detectors --- *)

let detectors =
  [ Detector.parity; Detector.internet; Detector.fletcher16;
    Detector.crc Bitkit.Crc.crc16_ccitt; Detector.crc Bitkit.Crc.crc32;
    Detector.crc Bitkit.Crc.crc64_xz ]

let test_detector_roundtrip () =
  List.iter
    (fun d ->
      let msg = "hello sublayers" in
      match d.Detector.verify (d.Detector.protect msg) with
      | Some got -> check Alcotest.string (d.Detector.name ^ " roundtrip") msg got
      | None -> Alcotest.failf "%s rejected its own frame" d.Detector.name)
    detectors

let test_detector_rejects_flip () =
  List.iter
    (fun d ->
      let msg = "hello sublayers" in
      let frame = Bytes.of_string (d.Detector.protect msg) in
      Bytes.set frame 3 (Char.chr (Char.code (Bytes.get frame 3) lxor 0x04));
      match d.Detector.verify (Bytes.to_string frame) with
      | Some _ -> Alcotest.failf "%s accepted a corrupted frame" d.Detector.name
      | None -> ())
    detectors

let test_detector_short_frames () =
  List.iter
    (fun d ->
      match d.Detector.verify "" with
      | Some _ when d.Detector.overhead_bytes > 0 -> Alcotest.failf "%s accepted empty" d.Detector.name
      | _ -> ())
    detectors

let test_detector_residual_rates () =
  let rng = Bitkit.Rng.create 77 in
  (* Parity misses all even-weight errors; CRC-32 essentially none. *)
  let parity2 =
    Detector.residual_error_rate Detector.parity rng ~trials:400 ~payload_len:64 ~flips:2
  in
  let crc2 =
    Detector.residual_error_rate (Detector.crc Bitkit.Crc.crc32) rng ~trials:400
      ~payload_len:64 ~flips:2
  in
  check Alcotest.bool "parity blind to double flips" true (parity2 > 0.5);
  check (Alcotest.float 1e-9) "crc32 catches double flips" 0. crc2

let prop_detector_verify_protect =
  qtest "verify . protect = Some" payload_gen (fun s ->
      List.for_all (fun d -> d.Detector.verify (d.Detector.protect s) = Some s) detectors)

(* --- Framers --- *)

let framers =
  [ Framer.hdlc Stuffing.Rule.hdlc; Framer.hdlc Stuffing.Rule.paper_best; Framer.cobs;
    Framer.dle_stx; Framer.length_prefix ]

let prop_framer_roundtrip =
  qtest "deframe . frame = Some" payload_gen (fun s ->
      List.for_all (fun f -> f.Framer.deframe (f.Framer.frame s) = Some s) framers)

let test_framer_special_payloads () =
  List.iter
    (fun f ->
      List.iter
        (fun s ->
          match f.Framer.deframe (f.Framer.frame s) with
          | Some got when got = s -> ()
          | _ -> Alcotest.failf "%s failed on %S" f.Framer.name s)
        [ ""; "\x00"; "\x00\x00\x00"; "\x10\x02\x10\x03"; "\x7e\x7e";
          String.make 300 '\xff'; String.make 254 'a'; String.make 255 'b';
          String.init 256 Char.chr ])
    framers

let test_cobs_overhead_bound () =
  (* COBS adds at most one byte per 254 plus the terminator and leading code. *)
  let s = String.make 1000 'x' in
  let framed_bytes = Bitkit.Bitseq.length (Framer.cobs.Framer.frame s) / 8 in
  check Alcotest.bool "bounded overhead" true (framed_bytes <= 1000 + (1000 / 254) + 2)

let test_hdlc_rejects_nonbyte () =
  let f = Framer.hdlc Stuffing.Rule.hdlc in
  (* A framed stream with a truncated body does not decode. *)
  let framed = f.Framer.frame "abc" in
  let broken = Bitkit.Bitseq.sub framed 0 (Bitkit.Bitseq.length framed - 9) in
  check Alcotest.bool "truncated rejected" true (f.Framer.deframe broken = None)

(* [Framer.hdlc] is the extraction-style codec plus byte packing: its
   frames are [Codec.encode] of the payload's bits, and on any bits at
   all it deframes to [Codec.decode] packed into bytes, or rejects where
   that is not a whole number of bytes. *)
let prop_hdlc_framer_is_codec =
  let bits_of s = Bitkit.Bitseq.to_bool_list (Bitkit.Bitseq.of_string s) in
  let pack l =
    if List.length l land 7 <> 0 then None
    else Some (Bitkit.Bitseq.to_string (Bitkit.Bitseq.of_bool_list l))
  in
  qtest "hdlc framer = codec + byte packing"
    QCheck2.Gen.(pair payload_gen (list_size (0 -- 200) bool))
    (fun (s, noise) ->
      List.for_all
        (fun scheme ->
          let f = Framer.hdlc scheme in
          let framed = bits_of s |> Stuffing.Codec.encode scheme in
          let noisy = noise @ framed in
          Bitkit.Bitseq.to_bool_list (f.Framer.frame s) = framed
          && f.Framer.deframe (Bitkit.Bitseq.of_bool_list noisy)
             = Option.bind (Stuffing.Codec.decode scheme noisy) pack
          && f.Framer.deframe (Bitkit.Bitseq.of_bool_list noise)
             = Option.bind (Stuffing.Codec.decode scheme noise) pack)
        [ Stuffing.Rule.hdlc; Stuffing.Rule.paper_best ])

(* --- Line codes --- *)

let bits_gen = QCheck2.Gen.(map Bitkit.Bitseq.of_bool_list (list_size (0 -- 128) bool))

let prop_linecode_roundtrip =
  qtest "decode . encode = Some" bits_gen (fun b ->
      List.for_all
        (fun c ->
          match c.Linecode.decode (c.Linecode.encode b) with
          | Some got -> Bitkit.Bitseq.equal got b
          | None -> false)
        [ Linecode.nrz; Linecode.nrzi; Linecode.manchester ])

let prop_4b5b_roundtrip =
  qtest "4b5b roundtrip on nibble-aligned input"
    QCheck2.Gen.(map Bitkit.Bitseq.of_string (string_size ~gen:char (0 -- 40)))
    (fun b ->
      match Linecode.four_b_five_b.Linecode.decode (Linecode.four_b_five_b.Linecode.encode b) with
      | Some got -> Bitkit.Bitseq.equal got b
      | None -> false)

let test_manchester_properties () =
  let e = Linecode.manchester.Linecode.encode (Bitkit.Bitseq.of_bits "0101") in
  check Alcotest.string "encoding" "10011001" (Bitkit.Bitseq.to_bits e);
  (* illegal symbol pair 11 rejected *)
  check Alcotest.bool "illegal rejected" true
    (Linecode.manchester.Linecode.decode (Bitkit.Bitseq.of_bits "11") = None);
  check Alcotest.bool "odd length rejected" true
    (Linecode.manchester.Linecode.decode (Bitkit.Bitseq.of_bits "100") = None)

let test_nrzi_transitions () =
  (* NRZI encodes 1 as a transition: 111 -> 1,0,1 starting from level 0 *)
  let e = Linecode.nrzi.Linecode.encode (Bitkit.Bitseq.of_bits "111") in
  check Alcotest.string "transitions" "101" (Bitkit.Bitseq.to_bits e)

let test_4b5b_no_long_zero_runs () =
  (* 4B/5B guarantees at most three consecutive zeros inside any encoded
     stream (that is its purpose: clock recovery). *)
  let b = Bitkit.Bitseq.of_string (String.make 32 '\x00') in
  let e = Linecode.four_b_five_b.Linecode.encode b in
  check Alcotest.(option int) "no 0000 run" None
    (Bitkit.Bitseq.find_sub ~pattern:(Bitkit.Bitseq.of_bits "00000") e)

(* --- ARQ machines over the composed stack --- *)

let arqs : (string * (module Arq.S)) list =
  [ ("stop-and-wait", (module Arq_stop_and_wait));
    ("go-back-n", (module Arq_go_back_n));
    ("selective-repeat", (module Arq_selective_repeat)) ]

let transfer_with spec channel payloads seed =
  let engine = Sim.Engine.create ~seed () in
  let link = Stack.link engine channel spec in
  let got = Stack.transfer engine link payloads in
  (got, link)

let payloads = List.init 40 (Printf.sprintf "payload-%04d")

let test_arq_reliable_delivery () =
  List.iter
    (fun (name, arq) ->
      let spec = { Stack.default_spec with arq } in
      let channel = { Sim.Channel.harsh with corruption = 0.03 } in
      let got, _ = transfer_with spec channel payloads 42 in
      if got <> payloads then
        Alcotest.failf "%s: delivered %d/%d (or out of order)" name (List.length got)
          (List.length payloads))
    arqs

let test_arq_ideal_no_retransmissions () =
  List.iter
    (fun (name, arq) ->
      let spec = { Stack.default_spec with arq } in
      let got, link = transfer_with spec Sim.Channel.ideal payloads 1 in
      check Alcotest.bool (name ^ " delivered") true (got = payloads);
      check Alcotest.int (name ^ " no retx")
        0 (Stack.arq_stats link.Stack.a).Arq.retransmissions)
    arqs

(* The sender's backlog costs O(1) per frame: handed 20 000 frames at
   once, each ARQ spends about the minor words per frame it spends on
   2 000. A backlog appended to as a list grows about tenfold here. *)
let test_arq_backlog_linear () =
  let words_per_frame arq n =
    let payloads = List.init n (Printf.sprintf "f%05d") in
    let engine = Sim.Engine.create ~seed:1 () in
    let link = Stack.link engine Sim.Channel.ideal { Stack.default_spec with arq } in
    let before = Gc.minor_words () in
    let got = Stack.transfer engine link payloads in
    let words = (Gc.minor_words () -. before) /. float_of_int n in
    check Alcotest.bool "delivered exactly" true (got = payloads);
    words
  in
  List.iter
    (fun (name, arq) ->
      let small = words_per_frame arq 2_000 and large = words_per_frame arq 20_000 in
      check Alcotest.bool
        (Printf.sprintf "%s: %.0f words/frame at 20 000 frames, %.0f at 2 000" name large small)
        true (large <= 1.5 *. small))
    arqs

let test_arq_efficiency_ordering () =
  (* Under loss, selective repeat retransmits no more than go-back-N. *)
  let channel = Sim.Channel.lossy 0.1 in
  let stats_for arq =
    let spec = { Stack.default_spec with arq; arq_config = { Arq.window = 8; rto = 0.1; max_retries = 30 } } in
    let got, link = transfer_with spec channel payloads 7 in
    check Alcotest.bool "delivered" true (got = payloads);
    (Stack.arq_stats link.Stack.a).Arq.data_sent
  in
  let gbn = stats_for (module Arq_go_back_n : Arq.S) in
  let sr = stats_for (module Arq_selective_repeat : Arq.S) in
  check Alcotest.bool (Printf.sprintf "sr (%d) <= gbn (%d)" sr gbn) true (sr <= gbn)

let test_arq_duplicate_suppression () =
  List.iter
    (fun (name, arq) ->
      let spec = { Stack.default_spec with arq } in
      let channel = { Sim.Channel.ideal with duplication = 0.4 } in
      let got, _ = transfer_with spec channel payloads 3 in
      if got <> payloads then Alcotest.failf "%s under duplication" name)
    arqs

let test_arq_bidirectional () =
  let engine = Sim.Engine.create ~seed:5 () in
  let link = Stack.link engine (Sim.Channel.lossy 0.05) Stack.default_spec in
  List.iter (fun p -> Stack.send link.Stack.a p) payloads;
  List.iter (fun p -> Stack.send link.Stack.b (p ^ "-rev")) payloads;
  Sim.Engine.run ~until:60. engine;
  check Alcotest.bool "a->b" true
    (List.of_seq (Queue.to_seq link.Stack.received_at_b) = payloads);
  check Alcotest.bool "b->a" true
    (List.of_seq (Queue.to_seq link.Stack.received_at_a)
    = List.map (fun p -> p ^ "-rev") payloads)

let test_pdu_codec () =
  let roundtrip p = Arq.decode_pdu (Arq.encode_pdu p) = Some p in
  check Alcotest.bool "data" true (roundtrip (Arq.Data (12345, "hello")));
  check Alcotest.bool "empty data" true (roundtrip (Arq.Data (0, "")));
  check Alcotest.bool "ack" true (roundtrip (Arq.Ack 65535));
  check Alcotest.bool "garbage" true (Arq.decode_pdu "\xFF" = None);
  check Alcotest.bool "bad kind" true (Arq.decode_pdu "\x07\x00\x01" = None)

(* --- Replaceability: every (detector, framer, linecode) combination
   works without touching the other sublayers (E1). --- *)

let test_mechanism_matrix () =
  let short = List.init 8 (Printf.sprintf "m%d") in
  List.iter
    (fun detector ->
      List.iter
        (fun framer ->
          let byte_oriented =
            framer.Framer.name <> "hdlc[01111110]" && framer.Framer.name <> "hdlc[00000010]"
          in
          List.iter
            (fun linecode ->
              (* 4b5b requires byte-aligned frames *)
              if linecode.Linecode.name <> "4b5b" || byte_oriented then begin
                let spec = { Stack.default_spec with detector; framer; linecode } in
                let got, _ = transfer_with spec (Sim.Channel.lossy 0.05) short 9 in
                if got <> short then
                  Alcotest.failf "combo %s/%s/%s failed" detector.Detector.name
                    framer.Framer.name linecode.Linecode.name
              end)
            Linecode.all)
        framers)
    [ Detector.crc Bitkit.Crc.crc32; Detector.crc Bitkit.Crc.crc64_xz; Detector.internet ]

let test_corruption_needs_detection () =
  (* With the null detector and a corrupting channel, damaged payloads
     reach the application; with CRC-32 they never do. *)
  let channel = { Sim.Channel.ideal with corruption = 0.3 } in
  let with_detector detector =
    let spec = { Stack.default_spec with detector } in
    let got, _ = transfer_with spec channel payloads 13 in
    got
  in
  let protected = with_detector (Detector.crc Bitkit.Crc.crc32) in
  check Alcotest.bool "crc32 delivers exactly" true (protected = payloads);
  let unprotected = with_detector Detector.none in
  check Alcotest.bool "no detection lets damage through" true (unprotected <> payloads)

(* --- Deframer (continuous bit stream) --- *)

let hdlc_framer = Framer.hdlc Stuffing.Rule.hdlc

let feed_in_chunks d stream chunk =
  let n = Bitkit.Bitseq.length stream in
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    let len = min chunk (n - !i) in
    out := !out @ Deframer.push d (Bitkit.Bitseq.sub stream !i len);
    i := !i + len
  done;
  !out

let test_deframer_basic_stream () =
  let d = Deframer.create () in
  let payloads = [ "alpha"; "beta"; "gamma" ] in
  let stream = Bitkit.Bitseq.concat (List.map hdlc_framer.Framer.frame payloads) in
  check Alcotest.(list string) "all frames" payloads (feed_in_chunks d stream 5)

let test_deframer_noise_and_idle () =
  let d = Deframer.create () in
  let stream =
    Bitkit.Bitseq.concat
      [ Bitkit.Bitseq.of_bits "110010101";      (* line noise before sync *)
        hdlc_framer.Framer.frame "first";
        Bitkit.Bitseq.of_bits "1111111111111"; (* idle ones between frames *)
        hdlc_framer.Framer.frame "second" ]
  in
  check Alcotest.(list string) "frames through noise" [ "first"; "second" ]
    (feed_in_chunks d stream 3);
  check Alcotest.bool "noise counted" true (Deframer.noise_discarded d >= 1)

let test_deframer_shared_flag () =
  (* back-to-back frames sharing one flag, as HDLC allows on the wire *)
  let d = Deframer.create () in
  let flag = Bitkit.Bitseq.of_bool_list Stuffing.Rule.hdlc.Stuffing.Rule.flag in
  let body p =
    Stuffing.Fast.stuff (Stuffing.Fast.compile Stuffing.Rule.hdlc) (Bitkit.Bitseq.of_string p)
  in
  let stream =
    Bitkit.Bitseq.concat [ flag; body "one"; flag; body "two"; flag ]
  in
  check Alcotest.(list string) "shared flags" [ "one"; "two" ] (feed_in_chunks d stream 4)

let test_deframer_chunking_invariance () =
  let payloads = List.init 10 (Printf.sprintf "payload-%d") in
  let stream = Bitkit.Bitseq.concat (List.map hdlc_framer.Framer.frame payloads) in
  List.iter
    (fun chunk ->
      let d = Deframer.create () in
      if feed_in_chunks d stream chunk <> payloads then
        Alcotest.failf "chunk size %d changed the result" chunk)
    [ 1; 3; 8; 64; 100_000 ]

let test_deframer_partial_then_complete () =
  let d = Deframer.create () in
  let framed = hdlc_framer.Framer.frame "split" in
  let n = Bitkit.Bitseq.length framed in
  let first = Bitkit.Bitseq.sub framed 0 (n - 4) in
  let rest = Bitkit.Bitseq.sub framed (n - 4) 4 in
  check Alcotest.(list string) "incomplete" [] (Deframer.push d first);
  check Alcotest.bool "buffering" true (Deframer.buffered_bits d > 0);
  check Alcotest.(list string) "completed" [ "split" ] (Deframer.push d rest)

let prop_deframer_roundtrip =
  qtest ~count:100 "deframer recovers framed payload streams"
    QCheck2.Gen.(list_size (1 -- 8) (string_size ~gen:char (1 -- 40)))
    (fun payloads ->
      let d = Deframer.create () in
      let stream = Bitkit.Bitseq.concat (List.map hdlc_framer.Framer.frame payloads) in
      feed_in_chunks d stream 11 = payloads)

(* Frames between random noise, fed in random chunk sizes, give the
   payloads and counts of the stream split at its flags, and the same as
   the stream fed whole: flags and bodies that straddle chunks are
   reassembled exactly. *)
let prop_deframer_chunking_on_noise =
  qtest ~count:100 "deframer chunking invariant on noisy streams"
    QCheck2.Gen.(
      triple
        (list_size (1 -- 6) (pair (list_size (0 -- 30) bool) (string_size ~gen:char (0 -- 30))))
        (1 -- 40) (list_size (0 -- 20) bool))
    (fun (parts, chunk, tail) ->
      let stream =
        Bitkit.Bitseq.concat
          (List.concat_map
             (fun (noise, p) -> [ Bitkit.Bitseq.of_bool_list noise; hdlc_framer.Framer.frame p ])
             parts
          @ [ Bitkit.Bitseq.of_bool_list tail ])
      in
      let run chunk =
        let d = Deframer.create () in
        let got = feed_in_chunks d stream chunk in
        (got, Deframer.frames_seen d, Deframer.noise_discarded d, Deframer.buffered_bits d)
      in
      (* the reference: split the whole stream at its flags and decode
         each non-empty region with the extraction-style codec *)
      let flag = Bitkit.Bitseq.of_bool_list Stuffing.Rule.hdlc.Stuffing.Rule.flag in
      let rec regions from acc =
        match Bitkit.Bitseq.find_sub ~from ~pattern:flag stream with
        | None -> List.rev acc
        | Some i ->
            regions (i + Bitkit.Bitseq.length flag) (Bitkit.Bitseq.sub stream from (i - from) :: acc)
      in
      let regions =
        match Bitkit.Bitseq.find_sub ~pattern:flag stream with
        | None -> []
        | Some i -> regions (i + Bitkit.Bitseq.length flag) []
      in
      let decoded =
        List.filter_map
          (fun r ->
            if Bitkit.Bitseq.length r = 0 then None
            else
              Some
                (match
                   Stuffing.Codec.unstuff Stuffing.Rule.hdlc.Stuffing.Rule.rule
                     (Bitkit.Bitseq.to_bool_list r)
                 with
                | Some l when List.length l land 7 = 0 ->
                    Some (Bitkit.Bitseq.to_string (Bitkit.Bitseq.of_bool_list l))
                | _ -> None))
          regions
      in
      let got, frames, noise, _ = run chunk in
      got = List.filter_map Fun.id decoded
      && frames = List.length got
      && noise = List.length decoded - frames
      && run chunk = run (Bitkit.Bitseq.length stream + 1))

(* The deframer's stated bound: a synced deframer fed idle ones never
   sees a closing flag, so it discards the frame at [max_frame_bits],
   counts it, and hunts for the next flag. *)
let test_deframer_oversize_bound () =
  let d = Deframer.create () in
  let flag = Bitkit.Bitseq.of_bool_list Stuffing.Rule.hdlc.Stuffing.Rule.flag in
  let ones = Bitkit.Bitseq.of_string (String.make 1024 '\xff') in
  check Alcotest.(list string) "flag alone" [] (Deframer.push d flag);
  for _ = 1 to 128 do
    (* 128 x 8 Kbit = 1 Mbit of ones *)
    check Alcotest.(list string) "no frame in idle ones" [] (Deframer.push d ones);
    if Deframer.buffered_bits d >= Deframer.max_frame_bits + Bitkit.Bitseq.length flag then
      Alcotest.failf "buffered %d bits" (Deframer.buffered_bits d)
  done;
  check Alcotest.bool "oversize counted" true (Deframer.oversize_discarded d >= 1);
  check Alcotest.(list string) "next frame decodes" [ "after" ]
    (Deframer.push d (hdlc_framer.Framer.frame "after"));
  check Alcotest.int "one frame seen" 1 (Deframer.frames_seen d)

(* A 32 Kbit frame fed a bit at a time: each bit is scanned once and
   the frame is assembled once, so this stays cheap. *)
let test_deframer_bitwise_feed_linear () =
  let payload = String.init 4096 (fun i -> Char.chr (i land 0xFF)) in
  let stream = hdlc_framer.Framer.frame payload in
  let d = Deframer.create () in
  check Alcotest.(list string) "bit by bit" [ payload ] (feed_in_chunks d stream 1)

(* --- Pinned schedule: the seeded SW/GBN/SR trio at 5% corruption fires
   the same events, goes idle at the same virtual instant and ends with
   the same counters as the reference run recorded for this test. Any
   observable change to a datalink sublayer moves one of them. --- *)

let pin_payloads =
  List.init 200 (fun i -> String.init 256 (fun j -> Char.chr (((i * 31) + (j * 7)) land 0xFF)))

let pinned_schedule arq seed =
  let engine = Sim.Engine.create ~seed () in
  let stats_a = Sublayer.Stats.create ~label:"A" ()
  and stats_b = Sublayer.Stats.create ~label:"B" () in
  let pool = Bitkit.Pool.create ~slots:256 ~slot_bytes:2048 () in
  let spec =
    { Stack.default_spec with arq; arq_config = { Arq.default_config with Arq.rto = 0.01 } }
  in
  let link =
    Stack.link engine ~stats_a ~stats_b ~pool
      { Sim.Channel.ideal with Sim.Channel.corruption = 0.05 } spec
  in
  List.iter (Stack.send link.Stack.a) pin_payloads;
  while (not (Stack.is_idle link.Stack.a)) && Sim.Engine.step engine do () done;
  let idle_at = Sim.Engine.now engine in
  Sim.Engine.run ~until:(idle_at +. 1.0) engine;
  let snapshot =
    Sublayer.Stats.snapshot_to_json (Sublayer.Stats.snapshot stats_a)
    ^ Sublayer.Stats.snapshot_to_json (Sublayer.Stats.snapshot stats_b)
  in
  check Alcotest.bool "delivered exactly" true
    (List.of_seq (Queue.to_seq link.Stack.received_at_b) = pin_payloads);
  (Sim.Engine.events_fired engine, Printf.sprintf "%h" idle_at, snapshot)

let test_pinned_schedule () =
  List.iteri
    (fun k ((name, arq), (events, idle_at, digest)) ->
      let ev, t, snapshot = pinned_schedule arq (100 + k) in
      check Alcotest.int (name ^ " events") events ev;
      check Alcotest.string (name ^ " idle at") idle_at t;
      check Alcotest.string
        (Printf.sprintf "%s stats digest of %s" name snapshot)
        digest (Digest.to_hex (Digest.string snapshot)))
    (List.combine arqs
       [ (479, "0x1.666666666666bp-1", "25fd87cf031a398a1c2956fd0d36eb52");
         (618, "0x1.a5e353f7ced95p-3", "1ecce2e07b8b1f908e1b8ce0ee4d1271");
         (462, "0x1.7ced916872b04p-3", "1e8be1b071542264f61cf7646ad5c33e") ])

(* --- MAC --- *)

let test_aloha_peak_throughput () =
  (* Saturated slotted ALOHA with p = 1/N approximates G=1: S = 1/e. *)
  let n = 20 in
  let r =
    Mac.simulate ~seed:2 ~stations:n ~slots:60_000 ~arrival:1.0
      (Mac.Aloha (1. /. Float.of_int n))
  in
  let expected = 1. /. Float.exp 1. in
  if Float.abs (r.Mac.throughput -. expected) > 0.03 then
    Alcotest.failf "aloha throughput %.3f vs 1/e=%.3f" r.Mac.throughput expected

let test_csma_beats_aloha () =
  (* With multi-slot packets, sensing the carrier avoids most collisions. *)
  let n = 10 in
  let run policy =
    (Mac.simulate ~seed:3 ~plen:5 ~stations:n ~slots:50_000 ~arrival:0.05 policy)
      .Mac.utilisation
  in
  let aloha = run (Mac.Aloha 0.1) in
  let csma = run (Mac.Csma 0.1) in
  check Alcotest.bool (Printf.sprintf "csma %.3f > aloha %.3f" csma aloha) true
    (csma > aloha)

let test_mac_fairness () =
  let r = Mac.simulate ~seed:4 ~stations:8 ~slots:40_000 ~arrival:0.05 (Mac.Aloha 0.12) in
  check Alcotest.bool (Printf.sprintf "fair (%.3f)" r.Mac.fairness) true (r.Mac.fairness > 0.95)

let test_mac_low_load_delivers () =
  let r = Mac.simulate ~seed:5 ~stations:4 ~slots:20_000 ~arrival:0.02 (Mac.Csma 0.3) in
  (* At 8% total offered load nearly everything should get through. *)
  check Alcotest.bool "keeps up" true (r.Mac.throughput > 0.07);
  check Alcotest.bool "queues stay short" true (r.Mac.mean_backlog < 1.0)

let () =
  Alcotest.run "datalink"
    [
      ( "detector",
        [
          Alcotest.test_case "roundtrip" `Quick test_detector_roundtrip;
          Alcotest.test_case "rejects flips" `Quick test_detector_rejects_flip;
          Alcotest.test_case "short frames" `Quick test_detector_short_frames;
          Alcotest.test_case "residual rates" `Slow test_detector_residual_rates;
          prop_detector_verify_protect;
        ] );
      ( "framer",
        [
          prop_framer_roundtrip;
          Alcotest.test_case "special payloads" `Quick test_framer_special_payloads;
          Alcotest.test_case "cobs overhead" `Quick test_cobs_overhead_bound;
          Alcotest.test_case "hdlc truncation" `Quick test_hdlc_rejects_nonbyte;
          prop_hdlc_framer_is_codec;
        ] );
      ( "linecode",
        [
          prop_linecode_roundtrip;
          prop_4b5b_roundtrip;
          Alcotest.test_case "manchester" `Quick test_manchester_properties;
          Alcotest.test_case "nrzi" `Quick test_nrzi_transitions;
          Alcotest.test_case "4b5b zero runs" `Quick test_4b5b_no_long_zero_runs;
        ] );
      ( "arq",
        [
          Alcotest.test_case "pdu codec" `Quick test_pdu_codec;
          Alcotest.test_case "reliable under harsh channel" `Slow test_arq_reliable_delivery;
          Alcotest.test_case "ideal: no retransmissions" `Quick test_arq_ideal_no_retransmissions;
          Alcotest.test_case "backlog linear in frames" `Quick test_arq_backlog_linear;
          Alcotest.test_case "sr <= gbn retransmissions" `Slow test_arq_efficiency_ordering;
          Alcotest.test_case "duplicate suppression" `Quick test_arq_duplicate_suppression;
          Alcotest.test_case "bidirectional" `Quick test_arq_bidirectional;
        ] );
      ( "stack",
        [
          Alcotest.test_case "mechanism matrix (E1)" `Slow test_mechanism_matrix;
          Alcotest.test_case "corruption needs detection" `Quick test_corruption_needs_detection;
        ] );
      ( "deframer",
        [
          Alcotest.test_case "basic stream" `Quick test_deframer_basic_stream;
          Alcotest.test_case "noise and idle" `Quick test_deframer_noise_and_idle;
          Alcotest.test_case "shared flags" `Quick test_deframer_shared_flag;
          Alcotest.test_case "chunking invariance" `Quick test_deframer_chunking_invariance;
          Alcotest.test_case "partial frames buffer" `Quick test_deframer_partial_then_complete;
          prop_deframer_roundtrip;
          prop_deframer_chunking_on_noise;
          Alcotest.test_case "oversize bound" `Quick test_deframer_oversize_bound;
          Alcotest.test_case "bit-by-bit feed" `Quick test_deframer_bitwise_feed_linear;
        ] );
      ("schedule", [ Alcotest.test_case "pinned trio" `Quick test_pinned_schedule ]);
      ( "mac",
        [
          Alcotest.test_case "aloha 1/e peak" `Slow test_aloha_peak_throughput;
          Alcotest.test_case "csma >= aloha" `Slow test_csma_beats_aloha;
          Alcotest.test_case "fairness" `Slow test_mac_fairness;
          Alcotest.test_case "low load" `Quick test_mac_low_load_delivers;
        ] );
    ]
