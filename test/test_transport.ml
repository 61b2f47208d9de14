(* Tests for the sublayered TCP: header codecs and the T3 layout audit,
   ISN generators, congestion-control algorithms, the CM machine driven
   as a pure state machine, RD/OSR behaviour, end-to-end transfers,
   replaceability (E10), peering with mixed mechanisms (E13), the
   monolithic baseline and shim interop (E4). *)

open Transport

let check = Alcotest.check
let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let payload_gen = QCheck2.Gen.(string_size ~gen:char (0 -- 200))

(* --- Segment codecs --- *)

(* A wire segment as the stack lays it out: each header's bytes from its
   writer, outermost first, then the payload. *)
let onion headers payload = String.concat "" headers ^ payload

(* A slice reader applied to a whole string, the rest copied out. *)
let decode_string decode s =
  Option.map
    (fun (h, rest) -> (h, Bitkit.Slice.to_string rest))
    (decode (Bitkit.Slice.of_string s))

let test_dm_codec () =
  let dm = { Segment.src_port = 1234; dst_port = 80 } in
  let s = onion [ Segment.write_dm dm ] "rest" in
  check Alcotest.int "header size" Segment.dm_header_bytes (String.length s - 4);
  (match decode_string Segment.decode_dm_slice s with
  | Some (got, payload) ->
      check Alcotest.bool "fields" true (got = dm);
      check Alcotest.string "payload" "rest" payload
  | None -> Alcotest.fail "decode failed");
  check Alcotest.(option (pair int int)) "peek" (Some (1234, 80)) (Segment.peek_ports (Bitkit.Slice.of_string s));
  check Alcotest.bool "short rejected" true (decode_string Segment.decode_dm_slice "\x01" = None)

let test_cm_codec () =
  let cm =
    { Segment.flags = { syn = true; ack = false; fin = false; rst = false };
      isn_local = 0xDEADBEEF; isn_remote = 0 }
  in
  match decode_string Segment.decode_cm_slice (onion [ Segment.write_cm cm ] "p") with
  | Some (got, payload) ->
      check Alcotest.bool "fields" true (got = cm);
      check Alcotest.string "payload" "p" payload
  | None -> Alcotest.fail "decode failed"

let test_rd_codec_with_sacks () =
  let rd =
    { Segment.seq = 0xFFFFFFFF; ack = 7; len = 512; has_data = true; has_ack = true;
      sacks = [ { Segment.sack_start = 100; sack_end = 200 };
                { Segment.sack_start = 300; sack_end = 400 } ] }
  in
  match decode_string Segment.decode_rd_slice (onion [ Segment.write_rd rd ] "xyz") with
  | Some (got, payload) ->
      check Alcotest.bool "fields" true (got = rd);
      check Alcotest.string "payload" "xyz" payload
  | None -> Alcotest.fail "decode failed"

let test_osr_codec () =
  let osr = { Segment.window = 12345; ecn_echo = true; ecn_ce = false } in
  match decode_string Segment.decode_osr_slice (onion [ Segment.write_osr osr ] "data") with
  | Some (got, payload) ->
      check Alcotest.bool "fields" true (got = osr);
      check Alcotest.string "payload" "data" payload
  | None -> Alcotest.fail "decode failed"

(* The demux's direct 4-byte read agrees with DM's decoder on any view,
   short ones and ones at an offset included. *)
let prop_peek_ports =
  qtest "peek_ports = dm decoder"
    QCheck2.Gen.(triple (string_size (0 -- 12)) (0 -- 4) (0 -- 4))
    (fun (s, pre, post) ->
      let len = max 0 (String.length s - pre - post) in
      let pre = min pre (String.length s) in
      let sl = Bitkit.Slice.make s ~off:pre ~len in
      Segment.peek_ports sl
      = Option.map
          (fun ((h : Segment.dm), _) -> (h.src_port, h.dst_port))
          (Segment.decode_dm_slice sl))

(* OSR's header-only reader agrees with its slice reader on any view. *)
let prop_osr_header =
  qtest "osr header = slice reader"
    QCheck2.Gen.(triple (string_size (0 -- 8)) (0 -- 4) (0 -- 4))
    (fun (s, pre, post) ->
      let len = max 0 (String.length s - pre - post) in
      let pre = min pre (String.length s) in
      let sl = Bitkit.Slice.make s ~off:pre ~len in
      Segment.decode_osr_header sl = Option.map fst (Segment.decode_osr_slice sl))

(* A data segment's four headers and payload, as [Segment]'s writers lay
   them out, peeled by the four slice readers. *)
let data_segment ?(dm = { Segment.src_port = 5; dst_port = 6 })
    ?(cm = { Segment.flags = Segment.no_cm_flags; isn_local = 3; isn_remote = 4 })
    ?(seq = 1) ?(ack = 2) ?(osr = Segment.default_osr) payload =
  onion
    [ Segment.write_dm dm; Segment.write_cm cm;
      Segment.write_rd
        { Segment.seq; ack; len = String.length payload; has_data = true;
          has_ack = true; sacks = [] };
      Segment.write_osr osr ]
    payload

let peel wire =
  Option.bind (Segment.decode_dm_slice wire) (fun (dm, rest) ->
      Option.bind (Segment.decode_cm_slice rest) (fun (cm, rest) ->
          Option.bind (Segment.decode_rd_slice rest) (fun (rd, rest) ->
              Option.map
                (fun (osr, payload) -> (dm, cm, rd, osr, Bitkit.Slice.to_string payload))
                (Segment.decode_osr_slice rest))))

let prop_onion_roundtrip =
  qtest "full onion roundtrip" payload_gen (fun p ->
      match peel (Bitkit.Slice.of_string (data_segment p)) with
      | Some (_, _, _, _, p') -> p' = p
      | None -> false)

(* T3: the Figure 6 layout is fully owned, disjointly, by the four
   sublayers. *)
let test_layout_t3 () =
  let l = Segment.layout in
  check Alcotest.(list string) "owners in stack order" [ "dm"; "cm"; "rd"; "osr" ]
    (Sublayer.Layout.owners l);
  check Alcotest.int "fully covered" (Sublayer.Layout.total_bits l)
    (Sublayer.Layout.covered_bits l);
  check Alcotest.int "header bytes" (8 * Segment.header_bytes) (Sublayer.Layout.total_bits l);
  (* every bit has exactly one owner *)
  for bit = 0 to Sublayer.Layout.total_bits l - 1 do
    if Sublayer.Layout.owner_of_bit l bit = None then
      Alcotest.failf "bit %d unowned" bit
  done;
  (* field volumes per sublayer *)
  check Alcotest.int "dm bits" 32 (Sublayer.Layout.bits_of l "dm");
  check Alcotest.int "cm bits" 72 (Sublayer.Layout.bits_of l "cm");
  check Alcotest.int "rd bits" 88 (Sublayer.Layout.bits_of l "rd");
  check Alcotest.int "osr bits" 24 (Sublayer.Layout.bits_of l "osr")

(* --- Wire (RFC 793) --- *)

let test_wire_codec () =
  let h =
    { Wire.src_port = 80; dst_port = 1234; seq = 0x12345678; ack = 0x9ABCDEF0;
      flags = { Wire.no_flags with syn = true; ack = true }; window = 5000 }
  in
  match decode_string Wire.decode_slice (Wire.encode h ~payload:"hello") with
  | Some (got, payload) ->
      check Alcotest.bool "fields" true (got = h);
      check Alcotest.string "payload" "hello" payload
  | None -> Alcotest.fail "decode failed"

let test_wire_checksum_rejects () =
  let h = { Wire.src_port = 1; dst_port = 2; seq = 3; ack = 4; flags = Wire.no_flags; window = 5 } in
  let s = Wire.encode h ~payload:"data!" in
  let bad = Bytes.of_string s in
  Bytes.set bad 22 (Char.chr (Char.code (Bytes.get bad 22) lxor 1));
  check Alcotest.bool "corrupt rejected" true
    (decode_string Wire.decode_slice (Bytes.to_string bad) = None);
  check Alcotest.bool "short rejected" true (decode_string Wire.decode_slice "tiny" = None)

let prop_wire_roundtrip =
  qtest "wire roundtrip" payload_gen (fun p ->
      let h =
        { Wire.src_port = 42; dst_port = 4242; seq = 99; ack = 100;
          flags = { Wire.no_flags with ack = true; psh = true }; window = 1 }
      in
      match decode_string Wire.decode_slice (Wire.encode h ~payload:p) with
      | Some (got, p') -> got = h && p' = p
      | None -> false)

let test_wire_options_skipped () =
  (* A header claiming data_offset 6 carries 4 option bytes our codec
     must skip (we never emit options but must accept them). *)
  let h =
    { Wire.src_port = 9; dst_port = 10; seq = 1; ack = 2;
      flags = { Wire.no_flags with ack = true }; window = 3 }
  in
  let with_options =
    (* re-encode manually with offset 6 and four option bytes *)
    let base = Wire.encode h ~payload:"" in
    let b = Bytes.of_string (String.sub base 0 12 ^ "\x60" ^ String.sub base 13 7
                             ^ "\x01\x01\x01\x00" ^ "PAY") in
    (* fix checksum: recompute by zeroing field *)
    Bytes.set b 16 '\000';
    Bytes.set b 17 '\000';
    let c = Bitkit.Checksum.internet (Bytes.to_string b) in
    Bytes.set b 16 (Char.chr (c lsr 8));
    Bytes.set b 17 (Char.chr (c land 0xFF));
    Bytes.to_string b
  in
  match decode_string Wire.decode_slice with_options with
  | Some (got, payload) ->
      check Alcotest.bool "header fields" true (got = h);
      check Alcotest.string "payload after options" "PAY" payload
  | None -> Alcotest.fail "options rejected"

let test_host_take_received () =
  let engine = Sim.Engine.create ~seed:90 () in
  let a, b = Host.pair engine Sim.Channel.ideal in
  Host.listen b ~port:80;
  let server = ref None in
  Host.on_accept b (fun c -> server := Some c);
  let c = Host.connect a ~remote_port:80 () in
  Host.write c "hello";
  Sim.Engine.run ~until:5. engine;
  let srv = Option.get !server in
  check Alcotest.bool "equal" true (Host.received_equal srv "hello");
  check Alcotest.bool "not a prefix" false (Host.received_equal srv "hell");
  check Alcotest.bool "not one byte off" false (Host.received_equal srv "hellp");
  check Alcotest.string "take" "hello" (Host.take_received srv);
  check Alcotest.string "cleared" "" (Host.take_received srv);
  check Alcotest.bool "cleared equals empty" true (Host.received_equal srv "");
  Host.write c " again";
  Sim.Engine.run ~until:10. engine;
  check Alcotest.int "length since the take" 6 (Host.received_length srv);
  check Alcotest.bool "equal since the take" true (Host.received_equal srv " again");
  check Alcotest.string "streams on" " again" (Host.take_received srv)

(* --- ISN generators --- *)

let test_isn_generators () =
  let engine = Sim.Engine.create () in
  let clock = Isn.clock engine in
  let hashed = Isn.hashed engine ~secret:7 in
  let counter = Isn.counter () in
  List.iter
    (fun (g : Isn.t) ->
      let v = g.Isn.next ~local_port:1000 ~remote_port:80 in
      check Alcotest.bool (g.Isn.gname ^ " 32-bit") true (v >= 0 && v <= 0xFFFFFFFF))
    [ clock; hashed; counter ]

let test_isn_predictability () =
  let engine = Sim.Engine.create () in
  let advance () = Sim.Engine.run ~until:(Sim.Engine.now engine +. 0.01) engine in
  let counter = Isn.counter () in
  check (Alcotest.float 0.01) "counter fully predictable" 1.0
    (Isn.predictability counter ~samples:50 ~advance);
  check (Alcotest.float 0.05) "clock fully predictable" 1.0
    (Isn.predictability (Isn.clock engine) ~samples:50 ~advance)

let test_isn_attack_success () =
  let engine = Sim.Engine.create () in
  let success make = Isn.attack_success ~make ~trials:40 in
  check (Alcotest.float 0.01) "clock attackable" 1.0
    (success (fun ~trial:_ -> Isn.clock engine));
  check (Alcotest.float 0.01) "counter attackable" 1.0
    (success (fun ~trial:_ -> Isn.counter ()));
  check Alcotest.bool "hashed resists" true
    (success (fun ~trial -> Isn.hashed engine ~secret:(trial * 104729)) < 0.1)

let test_isn_hashed_separates_tuples () =
  let engine = Sim.Engine.create () in
  let hashed = Isn.hashed engine ~secret:99 in
  let a = hashed.Isn.next ~local_port:1000 ~remote_port:80 in
  let b = hashed.Isn.next ~local_port:1001 ~remote_port:80 in
  check Alcotest.bool "different tuples differ" true (a <> b)

(* --- Congestion control algorithms --- *)

let test_cc_reno_dynamics () =
  let cc = Cc.reno.Cc.create ~mss:1000 ~now:(fun () -> 0.) in
  let w0 = cc.Cc.window () in
  (* slow start doubles per window's worth of acks *)
  cc.Cc.on_ack ~bytes:1000 ~rtt:None;
  check Alcotest.bool "slow start grows by bytes" true (cc.Cc.window () = w0 +. 1000.);
  cc.Cc.on_loss Cc.Dup_ack;
  let after_fast = cc.Cc.window () in
  check Alcotest.bool "halved" true (after_fast < w0);
  cc.Cc.on_loss Cc.Timeout;
  check (Alcotest.float 0.1) "collapsed to 1 mss" 1000. (cc.Cc.window ())

let test_cc_all_algorithms_sane () =
  List.iter
    (fun algo ->
      let t = ref 0. in
      let cc = algo.Cc.create ~mss:1000 ~now:(fun () -> !t) in
      for i = 1 to 200 do
        t := Float.of_int i *. 0.01;
        cc.Cc.on_ack ~bytes:1000 ~rtt:(Some 0.01);
        if i mod 50 = 0 then cc.Cc.on_loss Cc.Dup_ack
      done;
      let w = cc.Cc.window () in
      if not (Float.is_finite w) || w < 1000. then
        Alcotest.failf "%s window insane: %f" algo.Cc.algo_name w)
    Cc.all

let test_cc_fixed_constant () =
  let cc = (Cc.fixed 8).Cc.create ~mss:1000 ~now:(fun () -> 0.) in
  cc.Cc.on_ack ~bytes:5000 ~rtt:None;
  cc.Cc.on_loss Cc.Timeout;
  check (Alcotest.float 0.1) "constant" 8000. (cc.Cc.window ())

(* --- Ranges --- *)

let test_ranges () =
  let r = Ranges.empty in
  let r, fresh = Ranges.add r 0 100 in
  check Alcotest.bool "fresh" true fresh;
  check Alcotest.int "cumulative" 100 (Ranges.cumulative r);
  let r, fresh = Ranges.add r 200 300 in
  check Alcotest.bool "gap fresh" true fresh;
  check Alcotest.int "cumulative stuck" 100 (Ranges.cumulative r);
  check Alcotest.(list (pair int int)) "two intervals" [ (0, 100); (200, 300) ] (Ranges.intervals r);
  let r, fresh = Ranges.add r 100 200 in
  check Alcotest.bool "fill fresh" true fresh;
  check Alcotest.int "merged" 300 (Ranges.cumulative r);
  check Alcotest.(list (pair int int)) "one interval" [ (0, 300) ] (Ranges.intervals r);
  let _, fresh = Ranges.add r 50 60 in
  check Alcotest.bool "duplicate not fresh" false fresh

let prop_ranges_model =
  (* Compare against a naive byte-set model. *)
  let ops_gen = QCheck2.Gen.(list_size (0 -- 30) (pair (0 -- 60) (1 -- 15))) in
  qtest "interval set = byte set" ops_gen (fun ops ->
      let r = ref Ranges.empty in
      let model = Hashtbl.create 64 in
      List.for_all
        (fun (lo, len) ->
          let hi = lo + len in
          let r', fresh = Ranges.add !r lo hi in
          r := r';
          let model_fresh = ref false in
          for i = lo to hi - 1 do
            if not (Hashtbl.mem model i) then begin
              model_fresh := true;
              Hashtbl.replace model i ()
            end
          done;
          let rec cum i = if Hashtbl.mem model i then cum (i + 1) else i in
          (* the maximal runs of the byte set, ascending: the one sorted,
             disjoint, non-adjacent form the interval set may take *)
          let rec runs i acc =
            if i > 75 then List.rev acc
            else if Hashtbl.mem model i then
              let j = cum i in
              runs j ((i, j) :: acc)
            else runs (i + 1) acc
          in
          fresh = !model_fresh
          && Ranges.cumulative !r = cum 0
          && Ranges.total_bytes !r = Hashtbl.length model
          && Ranges.intervals !r = runs 0 [])
        ops)

(* --- CM driven as a pure machine --- *)

let mk_cm () =
  Cm.initial Config.default ~isn:(Isn.counter ()) ~local_port:1 ~remote_port:2

(* CM emits wirebufs downward; feeding them back in means crossing the
   wire, i.e. flattening to a slice view. *)
let wire_of wb = Bitkit.Wirebuf.to_slice wb

let rec feed cm = function
  | [] -> (cm, [])
  | input :: rest ->
      let cm, acts = Cm.handle_down_ind cm (wire_of input) in
      let cm, more = feed cm rest in
      (cm, acts @ more)

let downs acts =
  List.filter_map (function Sublayer.Machine.Down s -> Some s | _ -> None) acts

let test_cm_handshake_pure () =
  (* Drive two CM machines against each other with a perfect channel. *)
  let a = mk_cm () and b = mk_cm () in
  let b, _ = Cm.handle_up_req b `Listen in
  let a, acts = Cm.handle_up_req a `Connect in
  check Alcotest.string "a syn-sent" "SYN_SENT" (Cm.phase_name a);
  let syn = List.hd (downs acts) in
  let b, acts_b = Cm.handle_down_ind b (wire_of syn) in
  check Alcotest.string "b syn-rcvd" "SYN_RCVD" (Cm.phase_name b);
  let a, acts_a = feed a (downs acts_b) in
  check Alcotest.string "a established" "ESTABLISHED" (Cm.phase_name a);
  let b, _ = feed b (downs acts_a) in
  check Alcotest.string "b established" "ESTABLISHED" (Cm.phase_name b);
  match (Cm.isns a, Cm.isns b) with
  | Some (al, ar), Some (bl, br) ->
      check Alcotest.bool "isn agreement" true (al = br && ar = bl)
  | _ -> Alcotest.fail "isns missing"

let test_cm_rejects_old_incarnation () =
  (* Establish a and b, then replay a segment stamped with stale ISNs. *)
  let a = mk_cm () and b = mk_cm () in
  let b, _ = Cm.handle_up_req b `Listen in
  let a, acts = Cm.handle_up_req a `Connect in
  let b, acts_b = Cm.handle_down_ind b (wire_of (List.hd (downs acts))) in
  let a, acts_a = feed a (downs acts_b) in
  let b, _ = feed b (downs acts_a) in
  let stale =
    onion
      [ Segment.write_cm
          { Segment.flags = Segment.no_cm_flags; isn_local = 424242; isn_remote = 515151 } ]
      "ghost"
  in
  let _, acts = Cm.handle_down_ind b (Bitkit.Slice.of_string stale) in
  check Alcotest.bool "no Up for stale identity" true
    (List.for_all (function Sublayer.Machine.Up (`Pdu _) -> false | _ -> true) acts);
  ignore a

let test_cm_syn_retransmission_and_give_up () =
  let a = mk_cm () in
  let a, _ = Cm.handle_up_req a `Connect in
  let rec retx a n =
    if n > Config.default.Config.syn_retries then a
    else begin
      let a, acts = Cm.handle_timer a Cm.Handshake in
      if n < Config.default.Config.syn_retries then
        check Alcotest.bool "retransmits syn" true (downs acts <> []);
      retx a (n + 1)
    end
  in
  let a = retx a 0 in
  check Alcotest.string "gave up" "CLOSED" (Cm.phase_name a)

let test_cm_simultaneous_open () =
  let a = mk_cm () and b = mk_cm () in
  let a, acts_a = Cm.handle_up_req a `Connect in
  let b, acts_b = Cm.handle_up_req b `Connect in
  (* cross the SYNs *)
  let a, acts_a2 = feed a (downs acts_b) in
  let b, acts_b2 = feed b (downs acts_a) in
  check Alcotest.string "a syn-rcvd" "SYN_RCVD" (Cm.phase_name a);
  check Alcotest.string "b syn-rcvd" "SYN_RCVD" (Cm.phase_name b);
  (* cross the SYN|ACKs *)
  let a, _ = feed a (downs acts_b2) in
  let b, _ = feed b (downs acts_a2) in
  check Alcotest.string "a est" "ESTABLISHED" (Cm.phase_name a);
  check Alcotest.string "b est" "ESTABLISHED" (Cm.phase_name b)

let rst_sent acts =
  List.exists
    (fun s ->
      match Segment.decode_cm_slice (wire_of s) with
      | Some (cm, _) -> cm.Segment.flags.Segment.rst
      | None -> false)
    (downs acts)

let test_cm_malformed_handshake_rst () =
  (* Regression: a peer driving the handshake with forged or incoherent
     segments must never raise — bogus segments are dropped, and when the
     handshake cannot complete CM aborts through the RST path. *)
  let b = mk_cm () in
  let b, _ = Cm.handle_up_req b `Listen in
  let forged flags ~isn_local ~isn_remote payload =
    Bitkit.Slice.of_string
      (onion [ Segment.write_cm { Segment.flags; isn_local; isn_remote } ] payload)
  in
  (* A handshake ACK out of nowhere (no SYN first): dropped, no raise. *)
  let b, acts = Cm.handle_down_ind b
      (forged { Segment.no_cm_flags with ack = true } ~isn_local:7 ~isn_remote:9 "")
  in
  check Alcotest.string "listener unmoved by stray ack" "LISTEN" (Cm.phase_name b);
  check Alcotest.bool "stray ack not upped" true
    (List.for_all (function Sublayer.Machine.Up _ -> false | _ -> true) acts);
  (* Real SYN arrives; then the attacker tries to complete with an ACK
     carrying the wrong echoed ISN. *)
  let b, _ = Cm.handle_down_ind b
      (forged { Segment.no_cm_flags with syn = true } ~isn_local:100 ~isn_remote:0 "")
  in
  check Alcotest.string "syn-rcvd" "SYN_RCVD" (Cm.phase_name b);
  let b, _ = Cm.handle_down_ind b
      (forged { Segment.no_cm_flags with ack = true } ~isn_local:100 ~isn_remote:424242 "")
  in
  check Alcotest.string "wrong echoed isn rejected" "SYN_RCVD" (Cm.phase_name b);
  (* Nonsense flag combination with the right identity: dropped too. *)
  let b, _ = Cm.handle_down_ind b
      (forged { Segment.syn = true; ack = false; fin = true; rst = false }
         ~isn_local:100 ~isn_remote:424242 "")
  in
  check Alcotest.string "syn|fin rejected" "SYN_RCVD" (Cm.phase_name b);
  (* Undecodable bytes: dropped. *)
  let b, _ = Cm.handle_down_ind b (Bitkit.Slice.of_string "\x00") in
  check Alcotest.string "garbage rejected" "SYN_RCVD" (Cm.phase_name b);
  (* The handshake can never complete; exhausting the retries must abort
     with an RST on the wire and a reset indication upward — the seed
     crashed here instead. *)
  let rec exhaust b n =
    if n > Config.default.Config.syn_retries then (b, [])
    else
      let b, acts = Cm.handle_timer b Cm.Handshake in
      if Cm.phase_name b = "CLOSED" then (b, acts) else exhaust b (n + 1)
  in
  let b, acts = exhaust b 0 in
  check Alcotest.string "aborted to closed" "CLOSED" (Cm.phase_name b);
  check Alcotest.bool "rst on the wire" true (rst_sent acts);
  check Alcotest.bool "reset indicated upward" true
    (List.exists (function Sublayer.Machine.Up `Reset -> true | _ -> false) acts)

(* --- End-to-end transfers over Host --- *)

let random_data seed n =
  let rng = Bitkit.Rng.create seed in
  String.init n (fun _ -> Char.chr (Bitkit.Rng.int rng 256))

let drive engine conns deadline =
  let rec go () =
    if
      Sim.Engine.now engine < deadline
      && not (List.for_all (fun c -> Host.finished c) conns)
    then begin
      Sim.Engine.run ~until:(Sim.Engine.now engine +. 0.5) engine;
      go ()
    end
  in
  go ();
  let completion = Sim.Engine.now engine in
  (* Let acknowledgements and teardown timers drain. *)
  Sim.Engine.run ~until:(Sim.Engine.now engine +. 30.) engine;
  completion

type outcome = {
  ok : bool;
  server_got : int;
  client_got : string;
  server_peer_closed : bool;
  virtual_time : float;
}

let transfer ?(config = Config.default) ?(fa = Host.sublayered) ?(fb = Host.sublayered)
    ?(guard = false) ?(echo = 0) ~seed channel bytes =
  let engine = Sim.Engine.create ~seed () in
  let a, b = Host.pair engine ~config ~factory_a:fa ~factory_b:fb ~guard channel in
  Host.listen b ~port:80;
  let server = ref None in
  Host.on_accept b (fun c ->
      server := Some c;
      if echo > 0 then begin
        Host.write c (random_data (seed + 1) echo);
        Host.close c
      end);
  let c = Host.connect a ~remote_port:80 () in
  let data = random_data seed bytes in
  Host.write c data;
  Host.close c;
  let completion = drive engine [ c ] 300. in
  match !server with
  | None -> Alcotest.fail "no accept"
  | Some srv ->
      { ok = Host.received srv = data;
        server_got = Host.received_length srv;
        client_got = Host.received c;
        server_peer_closed = Host.peer_closed srv;
        virtual_time = completion }

let test_e2e_ideal () =
  let o = transfer ~seed:1 Sim.Channel.ideal 100_000 in
  check Alcotest.bool "exact bytes" true o.ok;
  check Alcotest.bool "fin seen" true o.server_peer_closed

let test_e2e_loss_sweep () =
  List.iter
    (fun loss ->
      let o = transfer ~seed:2 (Sim.Channel.lossy loss) 30_000 in
      if not o.ok then Alcotest.failf "loss %.2f: wrong bytes (%d)" loss o.server_got)
    [ 0.01; 0.05; 0.1; 0.2 ]

let test_e2e_harsh_reorder_dup () =
  let o = transfer ~seed:3 Sim.Channel.harsh 50_000 in
  check Alcotest.bool "exact under harsh" true o.ok

let test_e2e_corruption_with_guard () =
  let o = transfer ~seed:4 ~guard:true { Sim.Channel.ideal with corruption = 0.1 } 30_000 in
  check Alcotest.bool "guarded" true o.ok

let test_e2e_empty_stream () =
  let o = transfer ~seed:5 Sim.Channel.ideal 0 in
  check Alcotest.bool "empty ok" true o.ok;
  check Alcotest.bool "fin still delivered" true o.server_peer_closed

let test_e2e_single_byte () =
  let o = transfer ~seed:6 (Sim.Channel.lossy 0.1) 1 in
  check Alcotest.bool "one byte" true o.ok

let test_e2e_bidirectional_echo () =
  let o = transfer ~seed:7 (Sim.Channel.lossy 0.05) ~echo:20_000 30_000 in
  check Alcotest.bool "forward" true o.ok;
  check Alcotest.bool "echo" true (o.client_got = random_data 8 20_000)

(* E10: replace congestion control and connection management without
   touching anything else. *)
let test_replace_cc () =
  List.iter
    (fun cc ->
      let o = transfer ~config:{ Config.default with cc } ~seed:9 (Sim.Channel.lossy 0.03) 40_000 in
      if not o.ok then Alcotest.failf "cc %s failed" cc.Cc.algo_name)
    Cc.all

let test_replace_isn () =
  List.iter
    (fun isn ->
      let o = transfer ~config:{ Config.default with isn } ~seed:10 Sim.Channel.ideal 5_000 in
      if not o.ok then Alcotest.fail "isn swap failed")
    [ Config.Clock; Config.Hashed 123; Config.Counter 1 ]

(* E13: peer sublayers interoperate even when each side picks different
   internal mechanisms (CC and ISN are sender-local choices). *)
let test_peering_mixed_mechanisms () =
  let engine = Sim.Engine.create ~seed:11 () in
  let cfg_a = { Config.default with cc = Cc.cubic; isn = Config.Clock } in
  let cfg_b = { Config.default with cc = Cc.vegas; isn = Config.Hashed 5 } in
  let to_a = ref (fun (_ : Bitkit.Slice.t) -> ()) in
  let to_b = ref (fun (_ : Bitkit.Slice.t) -> ()) in
  let ch dir = Sim.Channel.create engine (Sim.Channel.lossy 0.02) ~size:Bitkit.Slice.length
      ~deliver:(fun s -> !dir s) () in
  let ab = ch to_b and ba = ch to_a in
  let a = Host.create engine ~config:cfg_a ~name:"A"
      ~link:(Sublayer.Link.make ~transmit:(fun s -> Sim.Channel.send ab s) ()) () in
  let b = Host.create engine ~config:cfg_b ~name:"B"
      ~link:(Sublayer.Link.make ~transmit:(fun s -> Sim.Channel.send ba s) ()) () in
  to_a := Host.from_wire a;
  to_b := Host.from_wire b;
  Host.listen b ~port:80;
  let server = ref None in
  Host.on_accept b (fun c -> server := Some c);
  let c = Host.connect a ~remote_port:80 () in
  let data = random_data 12 30_000 in
  Host.write c data;
  Host.close c;
  ignore (drive engine [ c ] 120.);
  match !server with
  | Some srv -> check Alcotest.bool "mixed peers interoperate" true (Host.received srv = data)
  | None -> Alcotest.fail "no accept"

let test_regression_rto_survives_ack_cancel () =
  (* Regression: RD once emitted Cancel_timer *after* the `Acked
     indication whose synchronous OSR Transmit had re-armed the RTO,
     silently disarming it and wedging 200 KB transfers at 10% loss
     (seed 55 reproduced it). The transfer must complete and the engine
     must never go idle with data outstanding. *)
  let o = transfer ~seed:55 (Sim.Channel.lossy 0.1) 200_000 in
  check Alcotest.bool "200KB@10%loss completes" true o.ok

(* --- ECN (the Fig 6 OSR bits, end to end) --- *)

let test_mark_ce_rewrites_only_osr () =
  let payload = "data" in
  let wire =
    data_segment ~dm:{ Segment.src_port = 1; dst_port = 2 }
      ~cm:{ Segment.flags = Segment.no_cm_flags; isn_local = 1; isn_remote = 2 }
      ~seq:9 ~ack:8 payload
  in
  let marked = Segment.mark_ce (Bitkit.Slice.of_string wire) in
  check Alcotest.bool "changed" true (Bitkit.Slice.to_string marked <> wire);
  (match peel marked with
  | Some (dm, _, rd, hdr, p) ->
      check Alcotest.bool "dm intact" true (dm = { Segment.src_port = 1; dst_port = 2 });
      check Alcotest.int "rd intact" 9 rd.Segment.seq;
      check Alcotest.bool "ce set" true hdr.Segment.ecn_ce;
      check Alcotest.string "payload intact" payload p
  | None -> Alcotest.fail "marked segment undecodable");
  (* control segments pass through unchanged *)
  let syn =
    onion
      [ Segment.write_dm { Segment.src_port = 1; dst_port = 2 };
        Segment.write_cm
          { Segment.flags = { Segment.no_cm_flags with syn = true }; isn_local = 5;
            isn_remote = 0 } ]
      ""
  in
  check Alcotest.string "syn unchanged" syn
    (Bitkit.Slice.to_string (Segment.mark_ce (Bitkit.Slice.of_string syn)))

let ecn_transfer marking =
  let engine = Sim.Engine.create ~seed:5 () in
  let b_ref = ref None in
  let to_a = ref (fun (_ : Bitkit.Slice.t) -> ()) in
  let to_b = ref (fun (_ : Bitkit.Slice.t) -> ()) in
  let ab =
    Sim.Channel.create engine { Sim.Channel.ideal with marking } ~size:Bitkit.Slice.length
      ~mark:Segment.mark_ce
      ~deliver:(fun s -> !to_b s)
      ()
  in
  let ba =
    Sim.Channel.create engine Sim.Channel.ideal ~size:Bitkit.Slice.length
      ~deliver:(fun s -> !to_a s)
      ()
  in
  let received = Buffer.create 16 in
  let a =
    Tcp_sublayered.create engine ~name:"A" Config.default ~local_port:1 ~remote_port:2
      ~transmit:(fun s -> Sim.Channel.send ab s)
      ~events:(fun _ -> ())
  in
  let b =
    Tcp_sublayered.create engine ~name:"B" Config.default ~local_port:2 ~remote_port:1
      ~transmit:(fun s -> Sim.Channel.send ba s)
      ~events:(function
        | `Data s -> (
            Bitkit.Slice.add_to_buffer received s;
            (* consume immediately, as Host's auto-read would *)
            match !b_ref with
            | Some b -> Tcp_sublayered.read b (Bitkit.Slice.length s)
            | None -> ())
        | _ -> ())
  in
  b_ref := Some b;
  to_a := Tcp_sublayered.from_wire a;
  to_b := Tcp_sublayered.from_wire b;
  Tcp_sublayered.listen b;
  Tcp_sublayered.connect a;
  let data = random_data 5 100_000 in
  Tcp_sublayered.write a data;
  Sim.Engine.run ~until:30. engine;
  (Buffer.contents received = data, Tcp_sublayered.cwnd a)

let test_ecn_marks_slow_sender_without_loss () =
  let clean_ok, clean_cwnd = ecn_transfer 0.0 in
  let marked_ok, marked_cwnd = ecn_transfer 0.2 in
  check Alcotest.bool "clean exact" true clean_ok;
  check Alcotest.bool "marked exact (no loss!)" true marked_ok;
  check Alcotest.bool
    (Printf.sprintf "cwnd reduced by marks (%.0f vs %.0f)" marked_cwnd clean_cwnd)
    true
    (marked_cwnd < clean_cwnd /. 2.)

(* --- Message mode (Msg replacing OSR, E15) --- *)

let msg_pair ~seed ~loss =
  let engine = Sim.Engine.create ~seed () in
  let to_a = ref (fun (_ : Bitkit.Slice.t) -> ()) in
  let to_b = ref (fun (_ : Bitkit.Slice.t) -> ()) in
  let ch dir =
    Sim.Channel.create engine (Sim.Channel.lossy loss) ~size:Bitkit.Slice.length
      ~deliver:(fun s -> !dir s)
      ()
  in
  let ab = ch to_b and ba = ch to_a in
  let deliveries = ref [] in
  let a =
    Tcp_messages.create engine ~name:"A" Config.default ~local_port:1 ~remote_port:2
      ~transmit:(fun s -> Sim.Channel.send ab s)
      ~events:(fun _ -> ())
  in
  let b =
    Tcp_messages.create engine ~name:"B" Config.default ~local_port:2 ~remote_port:1
      ~transmit:(fun s -> Sim.Channel.send ba s)
      ~events:(function `Msg m -> deliveries := m :: !deliveries | _ -> ())
  in
  to_a := Tcp_messages.from_wire a;
  to_b := Tcp_messages.from_wire b;
  Tcp_messages.listen b;
  Tcp_messages.connect a;
  (engine, a, deliveries)

let test_msg_exactly_once_any_order () =
  let engine, a, deliveries = msg_pair ~seed:71 ~loss:0.08 in
  let msgs = List.init 50 (fun i -> Printf.sprintf "%03d-%s" i (String.make 100 'x')) in
  List.iter (Tcp_messages.send a) msgs;
  Sim.Engine.run ~until:60. engine;
  let got = List.rev !deliveries in
  check Alcotest.int "all delivered" 50 (List.length got);
  check Alcotest.bool "exactly the sent set" true
    (List.sort compare got = List.sort compare msgs)

let test_msg_avoids_hol_blocking () =
  let engine, a, deliveries = msg_pair ~seed:72 ~loss:0.15 in
  let msgs = List.init 40 (fun i -> Printf.sprintf "%03d" i) in
  List.iter (Tcp_messages.send a) msgs;
  Sim.Engine.run ~until:60. engine;
  let got = List.rev !deliveries in
  check Alcotest.int "all delivered" 40 (List.length got);
  (* under 15% loss some later message overtakes an earlier one *)
  check Alcotest.bool "out-of-order delivery observed" true
    (got <> List.sort compare got)

let test_msg_large_messages_fragment () =
  let engine, a, deliveries = msg_pair ~seed:73 ~loss:0.05 in
  let big = List.init 5 (fun i -> String.make 5_000 (Char.chr (97 + i))) in
  List.iter (Tcp_messages.send a) big;
  Sim.Engine.run ~until:60. engine;
  check Alcotest.bool "fragmented and reassembled" true
    (List.sort compare (List.rev !deliveries) = List.sort compare big)

let test_msg_empty_message () =
  let engine, a, deliveries = msg_pair ~seed:74 ~loss:0.0 in
  Tcp_messages.send a "";
  Tcp_messages.send a "tail";
  Sim.Engine.run ~until:10. engine;
  check Alcotest.bool "empty message survives" true
    (List.sort compare (List.rev !deliveries) = [ ""; "tail" ])

let test_msg_stack_is_a_module_swap () =
  (* The message stack reuses RD/CM/DM unchanged; its segments still obey
     the Figure 6 lower headers, which DM can demultiplex. *)
  let engine, a, _ = msg_pair ~seed:75 ~loss:0.0 in
  Tcp_messages.send a "x";
  Sim.Engine.run ~until:5. engine;
  check Alcotest.bool "finished" true (Tcp_messages.finished a);
  check Alcotest.int "sent" 1 (Tcp_messages.messages_sent a)

(* --- Timer cancels: only a timer a sublayer armed --- *)

let timer_acts tm acts =
  List.fold_left
    (fun (set, cancel) -> function
      | Sublayer.Machine.Set_timer (t, _) when t = tm -> (set + 1, cancel)
      | Sublayer.Machine.Cancel_timer t when t = tm -> (set, cancel + 1)
      | _ -> (set, cancel))
    (0, 0) acts

(* RD arms [Ack_delay] exactly when it owes a delayed ack, so a segment
   it answers cancels the timer only then: with delayed acks off no
   segment yields a cancel, and with them on only the one that finds an
   ack owed does. [Closed] cancels only what is armed: the owed ack's
   timer, and [Rto] only with segments in flight. *)
let test_rd_cancels_only_armed_timers () =
  let segment offset payload =
    `Pdu
      (Bitkit.Slice.of_string
         (onion
            [ Segment.write_rd
                { Segment.seq = 201 + offset; ack = 0; len = String.length payload;
                  has_data = true; has_ack = false; sacks = [] };
              Segment.write_osr Segment.default_osr ]
            payload))
  in
  let established cfg =
    fst (Rd.handle_down_ind (Rd.initial cfg ~now:(fun () -> 0.)) (`Established (100, 200)))
  in
  let feed rd ind =
    let rd, acts = Rd.handle_down_ind rd ind in
    (rd, timer_acts Rd.Ack_delay acts)
  in
  let pair = Alcotest.(pair int int) in
  let rd = established Config.default in
  let rd, first = feed rd (segment 0 "a") in
  let rd, second = feed rd (segment 1 "b") in
  let _, dup = feed rd (segment 0 "a") in
  check pair "no delayed acks: in order" (0, 0) first;
  check pair "no delayed acks: next" (0, 0) second;
  check pair "no delayed acks: duplicate" (0, 0) dup;
  let rd = established { Config.default with delayed_ack = true } in
  let rd, first = feed rd (segment 0 "a") in
  let owing = rd in
  let rd, second = feed rd (segment 1 "b") in
  let rd, dup = feed rd (segment 0 "a") in
  check pair "delayed acks: the first segment arms" (1, 0) first;
  check pair "delayed acks: the next one acks and cancels" (0, 1) second;
  check pair "delayed acks: nothing owed, nothing cancelled" (0, 0) dup;
  let closed rd = Rd.handle_down_ind rd `Closed |> snd in
  check pair "closed, an ack owed" (0, 1) (timer_acts Rd.Ack_delay (closed owing));
  check pair "closed, nothing owed" (0, 0) (timer_acts Rd.Ack_delay (closed rd));
  check pair "closed, nothing in flight" (0, 0) (timer_acts Rd.Rto (closed rd));
  let sending, _ = Rd.handle_up_req rd (`Transmit (0, 1, Bitkit.Wirebuf.of_string "x")) in
  check pair "closed, a segment in flight" (0, 1) (timer_acts Rd.Rto (closed sending))

(* OSR cancels [Persist] on an ack with an open window only when a zero
   window armed it: the ack reopening the window still disarms the
   probe, and the acks around it cancel nothing; so does [Closed]. *)
let test_osr_cancels_only_armed_persist () =
  let acked window =
    `Acked (0, Bitkit.Slice.of_string (Segment.write_osr { Segment.default_osr with window }), None)
  in
  let step osr f =
    let osr, acts = f osr in
    (osr, timer_acts Osr.Persist acts)
  in
  let pair = Alcotest.(pair int int) in
  let osr = Osr.initial Config.default ~now:(fun () -> 0.) in
  let osr, _ = Osr.handle_down_ind osr `Established in
  let osr, open_ack = step osr (fun o -> Osr.handle_down_ind o (acked 0xFFFF)) in
  let osr, closed = step osr (fun o -> Osr.handle_down_ind o (acked 0)) in
  let osr, write = step osr (fun o -> Osr.handle_up_req o (`Write "x")) in
  let probing = osr in
  let osr, reopen = step osr (fun o -> Osr.handle_down_ind o (acked 0xFFFF)) in
  let osr, after = step osr (fun o -> Osr.handle_down_ind o (acked 0xFFFF)) in
  let finish o = Osr.handle_down_ind o `Closed in
  check pair "an open window, nothing armed" (0, 0) open_ack;
  check pair "a closed window, nothing to send" (0, 0) closed;
  check pair "a write into a zero window arms the probe" (1, 0) write;
  check pair "the reopening ack cancels it" (0, 1) reopen;
  check pair "then nothing is armed" (0, 0) after;
  check pair "closed while probing" (0, 1) (snd (step probing finish));
  check pair "closed with nothing armed" (0, 0) (snd (step osr finish))

(* --- What one RD or OSR step allocates --- *)

(* Minor words one call of [f] allocates, averaged over many calls on the
   same state: a handler is a pure function of its state, so each call
   repeats the same step. *)
let step_words f =
  ignore (f ());
  let calls = 1000 in
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. before) /. float_of_int calls

(* RD on an established connection (ISNs 100 and 200) at time 0. *)
let rd_established ?(cfg = Config.default) () =
  fst (Rd.handle_down_ind (Rd.initial cfg ~now:(fun () -> 0.)) (`Established (100, 200)))

(* A segment from the peer's RD: [payload] at [offset] of its stream (no
   data when empty), acknowledging ours up to [ack] with [sacks] as
   ranges of our stream. *)
let rd_pdu ?(offset = 0) ?(payload = "") ?(sacks = []) ~ack () =
  let block (lo, hi) = { Segment.sack_start = 101 + lo; sack_end = 101 + hi } in
  `Pdu
    (Bitkit.Slice.of_string
       (onion
          [ Segment.write_rd
              { Segment.seq = 201 + offset; ack = 101 + ack; len = String.length payload;
                has_data = payload <> ""; has_ack = true; sacks = List.map block sacks };
            Segment.write_osr Segment.default_osr ]
          payload))

(* [n] segments of 100 bytes sent from offset [from]. *)
let rd_transmit ?(from = 0) rd n =
  let payload = Bitkit.Wirebuf.of_string (String.make 100 'x') in
  let rec go rd i =
    if i = n then rd
    else go (fst (Rd.handle_up_req rd (`Transmit (from + (100 * i), 100, payload)))) (i + 1)
  in
  go rd 0

(* The data path's RD steps build one connection record each, with no
   action list appended and no SACK list filtered: 111 words for a
   receiver's in-order segment, 154 when the data half copied the record
   twice and the step appended the halves' lists, and 110 for a sender's
   ack of new data, 139 when the RTT update and the ack copied it once
   each. Storing the block OSR sends down at each window change (twice
   per segment a receiving application reads) copies RD's own record
   alone: 10 words, 27 when the block sat in the connection record. *)
let test_rd_step_words () =
  let receiver = rd_established () in
  let segment = rd_pdu ~payload:(String.make 100 'd') ~ack:0 () in
  let in_order = step_words (fun () -> Rd.handle_down_ind receiver segment) in
  let block = `Set_block (Segment.write_osr { Segment.default_osr with window = 1234 }) in
  let set_block = step_words (fun () -> Rd.handle_up_req receiver block) in
  let sender = rd_transmit (rd_established ()) 4 in
  let ack = rd_pdu ~ack:100 () in
  let new_data = step_words (fun () -> Rd.handle_down_ind sender ack) in
  check Alcotest.bool (Printf.sprintf "receiver's in-order segment: %.1f words" in_order) true
    (in_order <= 120.);
  check Alcotest.bool (Printf.sprintf "sender's ack of new data: %.1f words" new_data) true
    (new_data <= 120.);
  check Alcotest.bool (Printf.sprintf "a new block from OSR: %.1f words" set_block) true
    (set_block <= 12.)

(* A SACK-bearing duplicate ack allocates for the segments whose flags it
   changes, not for the queue: over [n] segments in flight after the
   first was acked, with a hole at the oldest, the first duplicate ack
   marks the segment past the hole sacked, and the third marks the hole
   retransmitted. Each costs the same over 64 segments as over 8 (70 and
   110 words), where remapping every queued record cost 205 and 1 045
   for the first, 307 and 1 315 for the third. *)
let test_rd_sack_words_flat () =
  let sack = rd_pdu ~ack:100 ~sacks:[ (200, 300) ] () in
  let words n =
    let rd = rd_transmit (rd_established ()) (n + 1) in
    let rd = fst (Rd.handle_down_ind rd (rd_pdu ~ack:100 ())) in
    let first = step_words (fun () -> Rd.handle_down_ind rd sack) in
    let rd = fst (Rd.handle_down_ind rd sack) in
    let rd = fst (Rd.handle_down_ind rd sack) in
    check Alcotest.(list (triple int bool bool)) "the hole and the sacked segment"
      [ (100, false, false); (200, true, false) ]
      (List.filteri (fun i _ -> i < 2) (Rd.outstanding rd));
    let third = step_words (fun () -> Rd.handle_down_ind rd sack) in
    (first, third)
  in
  let first8, third8 = words 8 and first64, third64 = words 64 in
  check (Alcotest.float 0.01) "first duplicate ack: 64 segments = 8" first8 first64;
  check (Alcotest.float 0.01) "fast retransmit: 64 segments = 8" third8 third64

(* The [`Acked] RD passes up with every data segment the receiver gets
   moves nothing: OSR reads the window and echo bit from the block and
   hands its own state back, allocating no more than decoding the block
   with the header's slice reader does (9 words against 13; 68 when the
   step copied its record for the header, the ack and the burst). *)
let test_osr_idle_ack_words () =
  let osr = Osr.initial Config.default ~now:(fun () -> 0.) in
  let osr, _ = Osr.handle_down_ind osr `Established in
  let block = Bitkit.Slice.of_string (Segment.write_osr Segment.default_osr) in
  let idle = `Acked (0, block, None) in
  check Alcotest.bool "nothing changed: the state itself" true
    (fst (Osr.handle_down_ind osr idle) == osr);
  let step = step_words (fun () -> Osr.handle_down_ind osr idle) in
  let decode = step_words (fun () -> Segment.decode_osr_slice block) in
  check Alcotest.bool (Printf.sprintf "no-progress ack: %.1f words, decode %.1f" step decode)
    true (step <= decode)

(* RD's scoreboard against a full remapping: random transmits,
   acks (duplicate, cumulative to a segment's end, or to any offset, old
   and beyond the sent ones included) with up to three SACK blocks,
   enough duplicates for fast retransmits, and RTO fires. The reference
   rewrites every queued record at each SACK-bearing ack and each
   retransmission, as RD did before it shared what an ack leaves alone;
   RD's queue (offsets, sacked and retransmitted flags) must equal it
   after every step. The local ISN sits 4 096 below the 32-bit wrap, so
   most runs carry their acks and SACK edges across it. *)
type ref_seg = { r_off : int; r_len : int; r_sacked : bool; r_retx : bool }

type rd_op = Send of int | Ack of int * int * (int * int) list | Rto_fire

let prop_rd_scoreboard =
  let isn = 0xFFFFF000 in
  let abs off = (isn + 1 + off) land 0xFFFFFFFF in
  let op_gen =
    QCheck2.Gen.(
      frequency
        [ (3, map (fun n -> Send n) (1 -- 1500));
          ( 6,
            map3
              (fun kind k blocks -> Ack (kind, k, blocks))
              (frequency [ (3, return 0); (2, return 1); (1, return 2) ])
              (0 -- 60_000)
              (list_size (0 -- 3) (pair (0 -- 40) (0 -- 40))) );
          (1, return Rto_fire) ])
  in
  let cfg = { Config.default with Config.max_retries = max_int; give_up_after = 1e9 } in
  let mark_retx victim =
    List.map (fun r -> if r.r_off = victim.r_off then { r with r_retx = true } else r)
  in
  (* One operation on RD and on the reference: [next] is the next
     offset to send, [acked] the cumulative ack, [dups] the duplicate
     acks since it last moved. *)
  let step (rd, model, next, acked, dups) = function
    | Send len ->
        let payload = Bitkit.Wirebuf.of_string (String.make len 's') in
        let rd, _ = Rd.handle_up_req rd (`Transmit (next, len, payload)) in
        let sent = { r_off = next; r_len = len; r_sacked = false; r_retx = false } in
        (rd, model @ [ sent ], next + len, acked, dups)
    | Rto_fire ->
        let rd, _ = Rd.handle_timer rd Rd.Rto in
        let model =
          match (List.find_opt (fun r -> not r.r_sacked) model, model) with
          | Some victim, _ | None, victim :: _ -> mark_retx victim model
          | None, [] -> model
        in
        (rd, model, next, acked, dups)
    | Ack (kind, k, blocks) ->
        let n = List.length model in
        let ack_off =
          match (kind, model) with
          | 0, _ | 1, [] -> acked
          | 1, _ ->
              let r = List.nth model (k mod n) in
              r.r_off + r.r_len
          | _ -> k mod (next + 2_000)
        in
        (* Each block runs from one queued segment's start to another's end. *)
        let blocks =
          if n = 0 then []
          else
            List.map
              (fun (i, j) ->
                let a = List.nth model (i mod n) and b = List.nth model (j mod n) in
                (min a.r_off b.r_off, max (a.r_off + a.r_len) (b.r_off + b.r_len)))
              blocks
        in
        let sacks =
          List.map (fun (lo, hi) -> { Segment.sack_start = abs lo; sack_end = abs hi }) blocks
        in
        let rd_header =
          { Segment.seq = 201; ack = abs ack_off; len = 0; has_data = false; has_ack = true;
            sacks }
        in
        let pdu =
          Bitkit.Slice.of_string
            (onion [ Segment.write_rd rd_header; Segment.write_osr Segment.default_osr ] "")
        in
        let rd, _ = Rd.handle_down_ind rd (`Pdu pdu) in
        let covered r = List.exists (fun (lo, hi) -> lo <= r.r_off && r.r_off + r.r_len <= hi) blocks in
        let model =
          if blocks = [] then model
          else List.map (fun r -> { r with r_sacked = r.r_sacked || covered r }) model
        in
        if ack_off > acked && ack_off <= next then
          (rd, List.filter (fun r -> r.r_off + r.r_len > ack_off) model, next, ack_off, 0)
        else if ack_off = acked && model <> [] then begin
          let dups = dups + 1 in
          let victim = List.find_opt (fun r -> not (r.r_sacked || r.r_retx)) model in
          match victim with
          | Some victim when dups >= cfg.Config.dupack_threshold ->
              (rd, mark_retx victim model, next, acked, dups)
          | Some _ | None -> (rd, model, next, acked, dups)
        end
        else (rd, model, next, acked, dups)
  in
  qtest ~count:300 "rd scoreboard = remapped reference"
    QCheck2.Gen.(list_size (0 -- 80) op_gen)
    (fun ops ->
      let rd =
        fst (Rd.handle_down_ind (Rd.initial cfg ~now:(fun () -> 0.)) (`Established (isn, 200)))
      in
      let same (rd, model, _, _, _) =
        Rd.outstanding rd = List.map (fun r -> (r.r_off, r.r_sacked, r.r_retx)) model
      in
      let _, ok =
        List.fold_left
          (fun (state, ok) op ->
            let state = step state op in
            (state, ok && same state))
          ((rd, [], 0, 0, 0), true)
          ops
      in
      ok)

(* A stream whose sequence numbers wrap past 2^32: A's ISN, B's remote
   one, is 0xFFFFFF00, so every 200-byte segment after the first starts
   past the wrap. The segment at offset 200 is lost, so B's acks carry a
   SACK block past the wrap. B must place every data offset, and A must
   read B's acks and SACK edges, as if nothing wrapped. *)
let test_rd_sequence_wrap () =
  let isn = 0xFFFFFF00 in
  let abs off = (isn + 1 + off) land 0xFFFFFFFF in
  let cfg = { Config.default with Config.delayed_ack = false } in
  let opened isns =
    fst (Rd.handle_down_ind (Rd.initial cfg ~now:(fun () -> 0.)) (`Established isns))
  in
  let pdus acts =
    List.filter_map
      (function
        | Sublayer.Machine.Down (`Pdu b) ->
            Some (Bitkit.Slice.of_string (Bitkit.Wirebuf.to_string b))
        | _ -> None)
      acts
  in
  let transmit (a, sent) off =
    let a, acts =
      Rd.handle_up_req a (`Transmit (off, 200, Bitkit.Wirebuf.of_string (String.make 200 'd')))
    in
    (a, sent @ pdus acts)
  in
  let a, sent = List.fold_left transmit (opened (isn, 100), []) [ 0; 200; 400; 600 ] in
  (* B's offsets placed, and the acks it sends back. *)
  let receive (b, offsets, acks) pdu =
    let b, acts = Rd.handle_down_ind b (`Pdu pdu) in
    let placed =
      List.filter_map
        (function Sublayer.Machine.Up (`Segment (off, _)) -> Some off | _ -> None)
        acts
    in
    (b, offsets @ placed, acks @ pdus acts)
  in
  let edges pdu =
    match Segment.decode_rd_slice pdu with
    | Some (rd, _) ->
        ( rd.Segment.ack,
          List.map (fun b -> (b.Segment.sack_start, b.Segment.sack_end)) rd.Segment.sacks )
    | None -> Alcotest.fail "an ack that does not decode"
  in
  let read a acks = List.fold_left (fun a pdu -> fst (Rd.handle_down_ind a (`Pdu pdu))) a acks in
  let b, offsets, acks =
    List.fold_left receive (opened (100, isn), [], []) (List.filteri (fun i _ -> i <> 1) sent)
  in
  check Alcotest.(list int) "B places each offset" [ 0; 400; 600 ] offsets;
  check
    Alcotest.(list (pair int (list (pair int int))))
    "B's acks and SACK edges"
    [ (abs 200, []); (abs 200, [ (abs 400, abs 600) ]); (abs 200, [ (abs 400, abs 800) ]) ]
    (List.map edges acks);
  let a = read a acks in
  check Alcotest.(list (triple int bool bool)) "A: 200 lost, 400 and 600 sacked"
    [ (200, false, false); (400, true, false); (600, true, false) ]
    (Rd.outstanding a);
  let _, offsets, acks = receive (b, [], []) (List.nth sent 1) in
  check Alcotest.(list int) "B places the lost segment" [ 200 ] offsets;
  check Alcotest.(list (pair int (list (pair int int)))) "B acks the whole stream"
    [ (abs 800, []) ] (List.map edges acks);
  check Alcotest.(list (triple int bool bool)) "A: all acked" [] (Rd.outstanding (read a acks))

(* --- Flow control: slow readers, zero windows, persist probes --- *)

let slow_reader_run factory ~seed =
  let engine = Sim.Engine.create ~seed () in
  let a, b = Host.pair engine ~factory_a:factory ~factory_b:factory Sim.Channel.ideal in
  Host.listen b ~port:80;
  let server = ref None in
  Host.on_accept b (fun c ->
      Host.set_autoread c false;
      server := Some c);
  let c = Host.connect a ~remote_port:80 () in
  let data = random_data seed 200_000 in
  Host.write c data;
  Host.close c;
  (* The reader consumes nothing: the sender must stall near the 64 KB
     receive buffer. *)
  Sim.Engine.run ~until:10. engine;
  let srv = match !server with Some s -> s | None -> Alcotest.fail "no accept" in
  let stalled_at = Host.received_length srv in
  check Alcotest.bool
    (Printf.sprintf "sender stalled by flow control (%d bytes)" stalled_at)
    true
    (stalled_at <= Config.default.Config.rcv_buf + (2 * Config.default.Config.mss));
  check Alcotest.bool "not finished while stalled" false (Host.finished c);
  (* Now drain with explicit credits and let persist/window updates
     restart the transfer. *)
  Host.set_autoread srv true;
  Host.consume srv stalled_at;
  let rec drive n =
    if n < 400 && not (Host.finished c) then begin
      Sim.Engine.run ~until:(Sim.Engine.now engine +. 0.5) engine;
      drive (n + 1)
    end
  in
  drive 0;
  check Alcotest.bool "exact after resume" true (Host.received srv = data)

let test_flow_control_sublayered () = slow_reader_run Host.sublayered ~seed:81

let test_flow_control_monolithic () = slow_reader_run Tcp_monolithic.factory ~seed:82

let test_zero_window_survives_long_stall () =
  (* A multi-second stall exercises the persist machinery: the sender
     must neither blast through the closed window nor deadlock. *)
  let engine = Sim.Engine.create ~seed:83 () in
  let a, b = Host.pair engine Sim.Channel.ideal in
  Host.listen b ~port:80;
  let server = ref None in
  Host.on_accept b (fun c ->
      Host.set_autoread c false;
      server := Some c);
  let c = Host.connect a ~remote_port:80 () in
  let data = random_data 83 150_000 in
  Host.write c data;
  Host.close c;
  Sim.Engine.run ~until:20. engine;
  let srv = match !server with Some s -> s | None -> Alcotest.fail "no accept" in
  let during_stall = Host.received_length srv in
  check Alcotest.bool "window respected during 20s stall" true
    (during_stall <= Config.default.Config.rcv_buf + (2 * Config.default.Config.mss));
  (* resume at t=20 *)
  Host.set_autoread srv true;
  Host.consume srv during_stall;
  let rec drive n =
    if n < 200 && not (Host.finished c) then begin
      Sim.Engine.run ~until:(Sim.Engine.now engine +. 0.5) engine;
      drive (n + 1)
    end
  in
  drive 0;
  check Alcotest.bool "completes after long stall" true (Host.received srv = data)

let test_window_shrinks_with_backlog () =
  let engine = Sim.Engine.create ~seed:84 () in
  let to_a = ref (fun (_ : Bitkit.Slice.t) -> ()) in
  let to_b = ref (fun (_ : Bitkit.Slice.t) -> ()) in
  let ch dir =
    Sim.Channel.create engine Sim.Channel.ideal ~size:Bitkit.Slice.length
      ~deliver:(fun s -> !dir s) ()
  in
  let ab = ch to_b and ba = ch to_a in
  let a =
    Tcp_sublayered.create engine ~name:"A" Config.default ~local_port:1 ~remote_port:2
      ~transmit:(fun s -> Sim.Channel.send ab s)
      ~events:(fun _ -> ())
  in
  let b =
    Tcp_sublayered.create engine ~name:"B" Config.default ~local_port:2 ~remote_port:1
      ~transmit:(fun s -> Sim.Channel.send ba s)
      ~events:(fun _ -> ())
  in
  to_a := Tcp_sublayered.from_wire a;
  to_b := Tcp_sublayered.from_wire b;
  Tcp_sublayered.listen b;
  Tcp_sublayered.connect a;
  Tcp_sublayered.write a (random_data 84 10_000);
  Sim.Engine.run ~until:5. engine;
  (* nobody consumed: ~10 KB of backlog must be reflected in A's view of
     B's window. Acks are generated by RD before OSR counts the bytes
     (strict sublayering), so the advertisement can lag by one segment. *)
  let w = Tcp_sublayered.peer_window_of a in
  let buf = Config.default.Config.rcv_buf in
  if w < buf - 10_000 || w > buf - 10_000 + Config.default.Config.mss then
    Alcotest.failf "window %d outside [%d, %d]" w (buf - 10_000)
      (buf - 10_000 + Config.default.Config.mss);
  (* consuming plus one more round trip restores it *)
  Tcp_sublayered.read b 10_000;
  Tcp_sublayered.write a "x";
  Sim.Engine.run ~until:(Sim.Engine.now engine +. 5.) engine;
  check Alcotest.bool "window restored after read" true
    (Tcp_sublayered.peer_window_of a >= buf - Config.default.Config.mss)

(* --- Watson timer-based CM (whole-sublayer replacement, E10) --- *)

let watson_transfer ?(loss = 0.0) ?(echo = 0) ~seed bytes =
  let engine = Sim.Engine.create ~seed () in
  let w = Tcp_watson.factory in
  let a, b = Host.pair engine ~factory_a:w ~factory_b:w (Sim.Channel.lossy loss) in
  Host.listen b ~port:80;
  let server = ref None in
  Host.on_accept b (fun c ->
      server := Some c;
      if echo > 0 then Host.write c (random_data (seed + 1) echo));
  let c = Host.connect a ~remote_port:80 () in
  let data = random_data seed bytes in
  Host.write c data;
  Sim.Engine.run ~until:120. engine;
  (c, !server, data)

let test_watson_delivers () =
  List.iter
    (fun loss ->
      let _, server, data = watson_transfer ~loss ~seed:30 40_000 in
      match server with
      | Some srv ->
          if Host.received srv <> data then Alcotest.failf "loss %.2f mismatch" loss
      | None -> Alcotest.fail "no accept")
    [ 0.0; 0.03 ]

let test_watson_bidirectional () =
  let c, server, data = watson_transfer ~loss:0.02 ~echo:15_000 ~seed:31 25_000 in
  match server with
  | Some srv ->
      check Alcotest.bool "forward" true (Host.received srv = data);
      check Alcotest.bool "echo" true (Host.received c = random_data 32 15_000)
  | None -> Alcotest.fail "no accept"

let test_watson_idle_closure () =
  (* With no handshake there is also no FIN: state evaporates by timer. *)
  let c, server, _ = watson_transfer ~seed:33 1_000 in
  check Alcotest.bool "client closed by idle timer" true (Host.closed c);
  match server with
  | Some srv -> check Alcotest.bool "server saw peer vanish" true (Host.peer_closed srv)
  | None -> Alcotest.fail "no accept"

let test_watson_skips_handshake_rtt () =
  (* The timer-based scheme sends data immediately (0-RTT); the three-way
     handshake costs the classic extra round trip before the first byte. *)
  let first_byte factory =
    let engine = Sim.Engine.create ~seed:34 () in
    let channel = { Sim.Channel.ideal with delay = 0.05 } in
    let a, b = Host.pair engine ~factory_a:factory ~factory_b:factory channel in
    Host.listen b ~port:80;
    let arrival = ref infinity in
    Host.on_accept b (fun c ->
        Host.on_data c (fun _ ->
            if !arrival = infinity then arrival := Sim.Engine.now engine));
    let c = Host.connect a ~remote_port:80 () in
    Host.write c "first";
    Sim.Engine.run ~until:30. engine;
    !arrival
  in
  let watson = first_byte (Tcp_watson.factory) in
  let classic = first_byte Host.sublayered in
  check Alcotest.bool
    (Printf.sprintf "watson %.3f at one-way delay, classic %.3f later" watson classic)
    true
    (watson < 0.06 && classic > watson +. 0.09)

let test_watson_rejects_stale_identity () =
  let engine = Sim.Engine.create ~seed:35 () in
  let received = ref 0 in
  let b =
    Tcp_watson.create engine ~name:"B" Config.default ~local_port:80 ~remote_port:1
      ~transmit:(fun _ -> ())
      ~events:(function `Data _ -> incr received | _ -> ())
  in
  Tcp_watson.listen b;
  (* First contact with identity (111, 0). *)
  let seg ~isn_local ~isn_remote seq payload =
    Bitkit.Slice.of_string
      (onion
         [ Segment.write_dm { Segment.src_port = 1; dst_port = 80 };
           Segment.write_cm { Segment.flags = Segment.no_cm_flags; isn_local; isn_remote };
           Segment.write_rd
             { Segment.seq; ack = 0; len = String.length payload; has_data = true;
               has_ack = false; sacks = [] };
           Segment.write_osr Segment.default_osr ]
         payload)
  in
  Tcp_watson.from_wire b (seg ~isn_local:111 ~isn_remote:0 112 "live");
  let live = !received in
  (* A delayed duplicate from an older incarnation must be ignored. *)
  Tcp_watson.from_wire b (seg ~isn_local:999 ~isn_remote:0 1000 "ghost");
  check Alcotest.int "live data delivered" 1 live;
  check Alcotest.int "stale incarnation dropped" live !received

(* --- Nagle and delayed acks (classic TCP features, E16) --- *)

let test_nagle_coalesces_tinygrams () =
  let writes = List.init 40 (fun i -> Printf.sprintf "w%02d" i) in
  let run nagle =
    let config = { Config.default with nagle } in
    let engine = Sim.Engine.create ~seed:62 () in
    let channel = { Sim.Channel.ideal with delay = 0.01 } in
    let to_a = ref (fun (_ : Bitkit.Slice.t) -> ()) in
    let to_b = ref (fun (_ : Bitkit.Slice.t) -> ()) in
    let ch dir =
      Sim.Channel.create engine channel ~size:Bitkit.Slice.length
        ~deliver:(fun s -> !dir s) ()
    in
    let ab = ch to_b and ba = ch to_a in
    let received = Buffer.create 256 in
    let a =
      Tcp_sublayered.create engine ~name:"A" config ~local_port:1 ~remote_port:2
        ~transmit:(fun s -> Sim.Channel.send ab s)
        ~events:(fun _ -> ())
    in
    let b =
      Tcp_sublayered.create engine ~name:"B" config ~local_port:2 ~remote_port:1
        ~transmit:(fun s -> Sim.Channel.send ba s)
        ~events:(function
          | `Data s -> Bitkit.Slice.add_to_buffer received s
          | _ -> ())
    in
    to_a := Tcp_sublayered.from_wire a;
    to_b := Tcp_sublayered.from_wire b;
    Tcp_sublayered.listen b;
    Tcp_sublayered.connect a;
    (* after establishment, burst tiny writes while the first segment is
       still in flight *)
    ignore
      (Sim.Engine.at engine ~time:1.0 (fun () ->
           List.iter (Tcp_sublayered.write a) writes));
    Sim.Engine.run ~until:30. engine;
    let ok = Buffer.contents received = String.concat "" writes in
    (ok, (Tcp_sublayered.osr_stats a).Osr.segments_out)
  in
  let ok_off, segs_off = run false in
  let ok_on, segs_on = run true in
  check Alcotest.bool "exact without nagle" true ok_off;
  check Alcotest.bool "exact with nagle" true ok_on;
  check Alcotest.bool
    (Printf.sprintf "nagle coalesces (%d vs %d segments)" segs_on segs_off)
    true
    (segs_on * 4 <= segs_off)

let test_delayed_ack_halves_pure_acks () =
  let run delayed_ack =
    let config = { Config.default with delayed_ack } in
    let engine = Sim.Engine.create ~seed:63 () in
    let b_ref = ref None in
    let to_a = ref (fun (_ : Bitkit.Slice.t) -> ()) in
    let to_b = ref (fun (_ : Bitkit.Slice.t) -> ()) in
    let ch dir =
      Sim.Channel.create engine { Sim.Channel.ideal with delay = 0.005 }
        ~size:Bitkit.Slice.length ~deliver:(fun s -> !dir s) ()
    in
    let ab = ch to_b and ba = ch to_a in
    let received = Buffer.create 256 in
    let a =
      Tcp_sublayered.create engine ~name:"A" config ~local_port:1 ~remote_port:2
        ~transmit:(fun s -> Sim.Channel.send ab s)
        ~events:(fun _ -> ())
    in
    let b =
      Tcp_sublayered.create engine ~name:"B" config ~local_port:2 ~remote_port:1
        ~transmit:(fun s -> Sim.Channel.send ba s)
        ~events:(function
          | `Data s -> (
              Bitkit.Slice.add_to_buffer received s;
              match !b_ref with
              | Some b -> Tcp_sublayered.read b (Bitkit.Slice.length s)
              | None -> ())
          | _ -> ())
    in
    b_ref := Some b;
    to_a := Tcp_sublayered.from_wire a;
    to_b := Tcp_sublayered.from_wire b;
    Tcp_sublayered.listen b;
    Tcp_sublayered.connect a;
    let data = random_data 63 80_000 in
    Tcp_sublayered.write a data;
    Sim.Engine.run ~until:30. engine;
    let ok = Buffer.contents received = data in
    (ok, (Tcp_sublayered.rd_stats b).Rd.acks_only)
  in
  let ok_off, acks_off = run false in
  let ok_on, acks_on = run true in
  check Alcotest.bool "exact eager" true ok_off;
  check Alcotest.bool "exact delayed" true ok_on;
  check Alcotest.bool
    (Printf.sprintf "fewer pure acks (%d vs %d)" acks_on acks_off)
    true
    (Float.of_int acks_on <= 0.7 *. Float.of_int acks_off)

let test_delayed_ack_never_delays_dupacks () =
  (* Gaps must be acked immediately or fast retransmit dies; a lossy
     transfer with delayed acks must still complete promptly. *)
  let config = { Config.default with delayed_ack = true } in
  let o = transfer ~config ~seed:64 (Sim.Channel.lossy 0.05) 60_000 in
  check Alcotest.bool "exact" true o.ok;
  check Alcotest.bool (Printf.sprintf "prompt (%.2fs)" o.virtual_time) true
    (o.virtual_time < 10.)

let test_nagle_delack_pathology () =
  (* The classic interaction: with Nagle on, a sub-MSS write queued behind
     an unacked one waits for the peer's *delayed* ack. *)
  let finish ~nagle ~delayed_ack =
    let config = { Config.default with nagle; delayed_ack } in
    let engine = Sim.Engine.create ~seed:65 () in
    let channel = { Sim.Channel.ideal with delay = 0.001 } in
    let a, b = Host.pair engine ~config channel in
    Host.listen b ~port:80;
    let done_at = ref infinity in
    let want = String.length "part-1part-2" in
    Host.on_accept b (fun c ->
        Host.on_data c (fun _ ->
            if Host.received_length c >= want && !done_at = infinity then
              done_at := Sim.Engine.now engine));
    let c = Host.connect a ~remote_port:80 () in
    ignore
      (Sim.Engine.at engine ~time:1.0 (fun () ->
           Host.write c "part-1";
           Host.write c "part-2"));
    Sim.Engine.run ~until:5. engine;
    !done_at -. 1.0
  in
  let plain = finish ~nagle:true ~delayed_ack:false in
  let pathological = finish ~nagle:true ~delayed_ack:true in
  check Alcotest.bool
    (Printf.sprintf "delayed ack inflates nagled latency (%.3f vs %.3f)" pathological
       plain)
    true
    (pathological > plain +. 0.8 *. Config.default.Config.ack_delay)

(* --- The record (security) sublayer and the secure stack --- *)

let test_rec_seal_open () =
  let a = Rec.initial ~key:Tcp_secure.demo_key ~local_port:1 ~remote_port:2 () in
  let b = Rec.initial ~key:Tcp_secure.demo_key ~local_port:2 ~remote_port:1 () in
  let a, record = Rec.seal a "hello record layer" in
  check Alcotest.(option string) "roundtrip" (Some "hello record layer")
    (Rec.open_ b record);
  (* sequence numbers advance, ciphertexts differ for equal plaintexts *)
  let _, record2 = Rec.seal a "hello record layer" in
  check Alcotest.bool "nonce advances" true (record <> record2)

let test_rec_tamper_rejected () =
  let a = Rec.initial ~key:Tcp_secure.demo_key ~local_port:1 ~remote_port:2 () in
  let b = Rec.initial ~key:Tcp_secure.demo_key ~local_port:2 ~remote_port:1 () in
  let _, record = Rec.seal a "payload" in
  for i = 0 to String.length record - 1 do
    let forged = Bytes.of_string record in
    Bytes.set forged i (Char.chr (Char.code record.[i] lxor 0x20));
    match Rec.open_ b (Bytes.to_string forged) with
    | Some _ -> Alcotest.failf "tamper at byte %d accepted" i
    | None -> ()
  done;
  check Alcotest.bool "failures counted" true (Rec.auth_failures b >= String.length record)

let test_rec_wrong_key_and_direction () =
  let a = Rec.initial ~key:Tcp_secure.demo_key ~local_port:1 ~remote_port:2 () in
  let wrong =
    Rec.initial ~key:(String.make 32 'x') ~local_port:2 ~remote_port:1 ()
  in
  let a', record = Rec.seal a "secret" in
  check Alcotest.(option string) "wrong key" None (Rec.open_ wrong record);
  (* a's own record must not open at a (direction binding) *)
  check Alcotest.(option string) "reflected record" None (Rec.open_ a' record);
  check Alcotest.(option string) "truncated" None (Rec.open_ a' "short")

let secure_pair ?(channel = Sim.Channel.ideal) ?key_b ~seed () =
  let engine = Sim.Engine.create ~seed () in
  let fa = Tcp_secure.factory ~key:Tcp_secure.demo_key in
  let fb =
    Tcp_secure.factory ~key:(Option.value ~default:Tcp_secure.demo_key key_b)
  in
  let a, b = Host.pair engine ~factory_a:fa ~factory_b:fb channel in
  (engine, a, b)

let test_secure_e2e_corruption_no_guard () =
  (* authentication subsumes the CRC guard: a corrupting+lossy channel
     still yields the exact stream *)
  let engine, a, b =
    secure_pair ~channel:{ (Sim.Channel.lossy 0.03) with corruption = 0.05 } ~seed:51 ()
  in
  Host.listen b ~port:80;
  let server = ref None in
  Host.on_accept b (fun c -> server := Some c);
  let c = Host.connect a ~remote_port:80 () in
  let data = random_data 51 80_000 in
  Host.write c data;
  Host.close c;
  ignore (drive engine [ c ] 120.);
  match !server with
  | Some srv -> check Alcotest.bool "exact through corruption" true (Host.received srv = data)
  | None -> Alcotest.fail "no accept"

let test_secure_wrong_key_no_connection () =
  let engine, a, b = secure_pair ~key_b:(String.make 32 'z') ~seed:52 () in
  Host.listen b ~port:80;
  let accepted = ref false in
  Host.on_accept b (fun _ -> accepted := true);
  let c = Host.connect a ~remote_port:80 () in
  Sim.Engine.run ~until:60. engine;
  check Alcotest.bool "no establishment across keys" false !accepted;
  check Alcotest.bool "client reset or closed" true (Host.was_reset c || Host.closed c)

let test_secure_no_plaintext_on_wire () =
  let engine = Sim.Engine.create ~seed:53 () in
  let seen = Buffer.create 4096 in
  let to_a = ref (fun (_ : Bitkit.Slice.t) -> ()) in
  let to_b = ref (fun (_ : Bitkit.Slice.t) -> ()) in
  let ch dir =
    Sim.Channel.create engine Sim.Channel.ideal ~size:Bitkit.Slice.length
      ~deliver:(fun s ->
        Buffer.add_string seen (Bitkit.Slice.to_string s);
        !dir s)
      ()
  in
  let ab = ch to_b and ba = ch to_a in
  let a =
    Tcp_secure.create engine ~key:Tcp_secure.demo_key ~name:"A" Config.default
      ~local_port:1 ~remote_port:2
      ~transmit:(fun s -> Sim.Channel.send ab s)
      ~events:(fun _ -> ())
  in
  let received = Buffer.create 64 in
  let b =
    Tcp_secure.create engine ~key:Tcp_secure.demo_key ~name:"B" Config.default
      ~local_port:2 ~remote_port:1
      ~transmit:(fun s -> Sim.Channel.send ba s)
      ~events:(function
        | `Data s -> Bitkit.Slice.add_to_buffer received s
        | _ -> ())
  in
  to_a := Tcp_secure.from_wire a;
  to_b := Tcp_secure.from_wire b;
  Tcp_secure.listen b;
  Tcp_secure.connect a;
  let secret = "TOP-SECRET-SUBLAYER-PAYLOAD" in
  Tcp_secure.write a secret;
  Sim.Engine.run ~until:10. engine;
  check Alcotest.string "delivered" secret (Buffer.contents received);
  let wire = Buffer.contents seen in
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "wire carries traffic" true (String.length wire > 100);
  check Alcotest.bool "plaintext never on the wire" false (contains wire secret)

(* --- Monolithic baseline --- *)

let test_mono_e2e () =
  let o =
    transfer ~fa:Tcp_monolithic.factory ~fb:Tcp_monolithic.factory ~seed:13
      (Sim.Channel.lossy 0.05) 50_000
  in
  check Alcotest.bool "monolithic exact" true o.ok

let test_mono_harsh () =
  let o =
    transfer ~fa:Tcp_monolithic.factory ~fb:Tcp_monolithic.factory ~seed:14
      Sim.Channel.harsh 30_000
  in
  check Alcotest.bool "monolithic harsh" true o.ok

let test_mono_checksum_drops_corruption () =
  let o =
    transfer ~fa:Tcp_monolithic.factory ~fb:Tcp_monolithic.factory ~seed:15
      { Sim.Channel.ideal with corruption = 0.1 } 20_000
  in
  check Alcotest.bool "standard checksum protects" true o.ok

(* --- Shim interop (E4) --- *)

let test_shim_translation_isomorphism () =
  (* sub -> std -> decode: field mapping on a data segment *)
  let shim = Shim.create () in
  (* teach the shim the handshake *)
  let syn =
    onion
      [ Segment.write_dm { Segment.src_port = 1; dst_port = 2 };
        Segment.write_cm
          { Segment.flags = { Segment.no_cm_flags with syn = true };
            isn_local = 1000; isn_remote = 0 } ]
      ""
  in
  (match Shim.sub_to_std shim (Bitkit.Slice.of_string syn) with
  | [ wire ] -> (
      match Wire.decode_slice wire with
      | Some (h, _) ->
          check Alcotest.bool "syn flag" true h.Wire.flags.Wire.syn;
          check Alcotest.int "seq = isn" 1000 h.Wire.seq
      | None -> Alcotest.fail "undecodable std syn")
  | _ -> Alcotest.fail "expected one segment");
  (* a standard SYN|ACK back *)
  let synack =
    Wire.encode
      { Wire.src_port = 2; dst_port = 1; seq = 2000; ack = 1001;
        flags = { Wire.no_flags with syn = true; ack = true }; window = 4096 }
      ~payload:""
  in
  match Shim.std_to_sub shim (Bitkit.Slice.of_string synack) with
  | [ seg ] -> (
      match Segment.decode_dm_slice seg with
      | Some (_, rest) -> (
          match Segment.decode_cm_slice rest with
          | Some (cm, _) ->
              check Alcotest.bool "syn+ack" true
                (cm.Segment.flags.Segment.syn && cm.Segment.flags.Segment.ack);
              check Alcotest.int "peer isn" 2000 cm.Segment.isn_local;
              check Alcotest.int "echoed isn" 1000 cm.Segment.isn_remote
          | None -> Alcotest.fail "bad cm")
      | None -> Alcotest.fail "bad dm")
  | _ -> Alcotest.fail "expected one sublayered segment"

let test_interop_both_directions () =
  List.iter
    (fun (fa, fb, name) ->
      let o = transfer ~fa ~fb ~seed:16 (Sim.Channel.lossy 0.05) 40_000 in
      if not o.ok then Alcotest.failf "%s failed" name)
    [ (Shim.factory, Tcp_monolithic.factory, "shim->mono");
      (Tcp_monolithic.factory, Shim.factory, "mono->shim");
      (Shim.factory, Shim.factory, "shim->shim") ]

(* The four E4 pairings that put RFC 793 on the wire, and the record
   layer's sealed segments, pinned to a recorded run: each factory's
   transmit is tapped, and a 20 KB transfer at 3 % loss must fire the
   same events, send its last segment at the same virtual time, deliver
   exactly, and put the same segments on the wire, byte for byte and in
   order, in each direction. The secure row holds Rec's ChaCha20
   ciphertext and SipHash tags end to end: a wrong keystream shared by
   both ends would still deliver exactly, but not these bytes. *)

type tap = { mutable segs : int; mutable last : float; bytes : Buffer.t }

let tap () = { segs = 0; last = 0.; bytes = Buffer.create 65536 }

let tapped (f : Host.factory) tap =
  { f with
    Host.make =
      (fun ?ins engine ~name cfg ~local_port ~remote_port ~transmit ~events ->
        f.Host.make ?ins engine ~name cfg ~local_port ~remote_port ~events
          ~transmit:(fun (sl : Bitkit.Slice.t) ->
            tap.segs <- tap.segs + 1;
            tap.last <- Sim.Engine.now engine;
            Buffer.add_substring tap.bytes sl.base sl.off sl.len;
            transmit sl)) }

let wire_pin_run ~seed fa fb =
  let engine = Sim.Engine.create ~seed () in
  let ta = tap () and tb = tap () in
  let a, b =
    Host.pair engine ~factory_a:(tapped fa ta) ~factory_b:(tapped fb tb)
      (Sim.Channel.lossy 0.03)
  in
  Host.listen b ~port:80;
  let server = ref None in
  Host.on_accept b (fun c -> server := Some c);
  let c = Host.connect a ~remote_port:80 () in
  let data = random_data seed 20_000 in
  Host.write c data;
  Host.close c;
  ignore (drive engine [ c ] 300.);
  let exact = match !server with Some s -> Host.received s = data | None -> false in
  let dir t = (t.segs, Digest.to_hex (Digest.string (Buffer.contents t.bytes))) in
  ( Sim.Engine.events_fired engine,
    Printf.sprintf "%h" (Float.max ta.last tb.last),
    exact, dir ta, dir tb )

let test_wire_bytes_pinned () =
  List.iter
    (fun ((name, seed, fa, fb), (events, vtime, (segs_ab, digest_ab), (segs_ba, digest_ba))) ->
      let ev, t, exact, (sa, da), (sb, db) = wire_pin_run ~seed fa fb in
      Printf.eprintf "PIN %s (%d, %S, (%d, %S), (%d, %S)) exact=%b\n%!" name ev t sa da sb db exact;
      check Alcotest.bool (name ^ " exact") true exact;
      check Alcotest.int (name ^ " events") events ev;
      check Alcotest.string (name ^ " end time") vtime t;
      check Alcotest.int (name ^ " segments a->b") segs_ab sa;
      check Alcotest.string (name ^ " bytes a->b") digest_ab da;
      check Alcotest.int (name ^ " segments b->a") segs_ba sb;
      check Alcotest.string (name ^ " bytes b->a") digest_ba db)
    [ ( ("mono<->mono", 70, Tcp_monolithic.factory, Tcp_monolithic.factory),
        ( 47, "0x1.d2f1a9fbe76c9p-5",
          (24, "940d3b8f461de7b8fa5287c6bbb57cea"),
          (23, "8ef922d2cdee2ea660c43f80a10d724f") ) );
      ( ("shim->mono", 71, Shim.factory, Tcp_monolithic.factory),
        ( 47, "0x1.e353f7ced9169p-5",
          (24, "552c88169152deb994cdced6437fb3f3"),
          (22, "56ccf14dbde66aaecb489ff01925b8bb") ) );
      ( ("mono->shim", 72, Tcp_monolithic.factory, Shim.factory),
        ( 43, "0x1.47ae147ae147bp-8",
          (23, "3e5f5d0bdef05f54c79c42f6ebb1bd11"),
          (22, "56ccf14dbde66aaecb489ff01925b8bb") ) );
      ( ("shim<->shim", 73, Shim.factory, Shim.factory),
        ( 49, "0x1.09374bc6a7efap-2",
          (25, "e9d6c743d358cefc9524f55b63e304c4"),
          (24, "3aae7888e03e8d032f6345e63ac753d6") ) );
      ( ( "secure<->secure", 74, Tcp_secure.factory ~key:Tcp_secure.demo_key,
          Tcp_secure.factory ~key:Tcp_secure.demo_key ),
        ( 46, "0x1.cac083126e979p-8",
          (23, "c9d05d101d44538ae59731e4a7b2ef39"),
          (22, "ef4a2dee07def807fb2c2c3107a03e98") ) ) ]

let test_interop_bidirectional () =
  let o =
    transfer ~fa:Shim.factory ~fb:Tcp_monolithic.factory ~seed:17 ~echo:15_000
      (Sim.Channel.lossy 0.02) 25_000
  in
  check Alcotest.bool "forward" true o.ok;
  check Alcotest.bool "echo back" true (o.client_got = random_data 18 15_000)

(* --- Host: multiple concurrent connections --- *)

let test_host_multiplexing () =
  let engine = Sim.Engine.create ~seed:19 () in
  let a, b = Host.pair engine Sim.Channel.ideal in
  Host.listen b ~port:80;
  Host.listen b ~port:81;
  let inboxes = Hashtbl.create 8 in
  Host.on_accept b (fun c -> Hashtbl.replace inboxes (Host.local_port c, Host.remote_port c) c);
  let conns =
    List.init 6 (fun i ->
        let port = if i mod 2 = 0 then 80 else 81 in
        let c = Host.connect a ~remote_port:port () in
        Host.write c (Printf.sprintf "conn-%d-data" i);
        Host.close c;
        (i, c))
  in
  ignore (drive engine (List.map snd conns) 60.);
  List.iter
    (fun (i, c) ->
      let key = (Host.remote_port c, Host.local_port c) in
      match Hashtbl.find_opt inboxes key with
      | Some srv ->
          check Alcotest.string (Printf.sprintf "conn %d demuxed" i)
            (Printf.sprintf "conn-%d-data" i) (Host.received srv)
      | None -> Alcotest.failf "connection %d never accepted" i)
    conns;
  check Alcotest.int "six server conns" 6 (Hashtbl.length inboxes)

let test_host_no_listener_ignored () =
  let engine = Sim.Engine.create ~seed:20 () in
  let a, _b = Host.pair engine Sim.Channel.ideal in
  let c = Host.connect a ~remote_port:9999 () in
  Sim.Engine.run ~until:60. engine;
  (* CM gives up after syn_retries and reports a reset *)
  check Alcotest.bool "reset reported" true (Host.was_reset c || Host.closed c)

(* Ephemeral ports: a host whose endpoints do nothing, so only the port
   table runs. Ports 49152, 50000 (bound twice, to two peers) and 65535
   are taken explicitly; the scan must step over them, hand out every
   other ephemeral port exactly once, and then refuse instead of
   spinning. *)
let inert_factory =
  { Host.fname = "inert";
    peek = Segment.peek_ports;
    make =
      (fun ?ins:_ _ ~name:_ _ ~local_port:_ ~remote_port:_ ~transmit:_ ~events:_ ->
        { Host.ep_from_wire = ignore; ep_connect = ignore; ep_listen = ignore;
          ep_write = ignore; ep_read = ignore; ep_close = ignore; ep_abort = ignore;
          ep_finished = (fun () -> true) }) }

(* --- What an endpoint costs to set up --- *)

(* An endpoint nothing but a stats registry observes costs its protocol
   state: its sublayers share the registry's counter records, its probes
   are the shared inert ones, and it gets no alloc spec, no app probe and
   no label. At most 180 words per endpoint: 161 with each sublayer's
   scope and span passed to it directly, 171 when the factory built two
   helper closures per endpoint for them, 307 when every endpoint
   resolved its own counters and built its own probes, spec and
   closures. *)
let test_unobserved_endpoint_words () =
  let engine = Sim.Engine.create () in
  let ins = Sublayer.Instrument.v ~stats:(Sublayer.Stats.create ()) () in
  let make i =
    ignore
      (Sys.opaque_identity
         (Host.sublayered.Host.make ~ins engine ~name:"A" Config.default
            ~local_port:(1024 + i) ~remote_port:80 ~transmit:ignore ~events:ignore))
  in
  make 0;
  let n = 1_000 in
  let w0 = Gc.minor_words () in
  for i = 1 to n do
    make i
  done;
  let per = (Gc.minor_words () -. w0) /. float_of_int n in
  check Alcotest.bool (Printf.sprintf "%.1f words per endpoint" per) true (per <= 180.)

(* Every seam's probe is built by its interface's [Compose.Tap]. One
   that observes nothing and charges nothing is one shared record per
   interface; a monitor or an allocation cell gets an endpoint a probe of
   its own. The router's two taps observe nothing, so they stay inert
   under a monitor. The datalink probes are checked in test_datalink. *)
let test_inert_probes_shared () =
  let mon = Some (Monitor.Runtime.create ()) in
  let cell = Some (Sublayer.Alloc.cell (Sublayer.Stats.unregistered "x")) in
  let shared ?(monitored = true) name (probe : _ Sublayer.Compose.probe) =
    check Alcotest.bool (name ^ ": unobserved shared") true
      (probe None ~conn:"x" == probe None ~conn:"y");
    check Alcotest.bool (name ^ ": no cells shared") true
      (probe ~alloc:(None, None) None ~conn:"x" == probe None ~conn:"x");
    check Alcotest.bool (name ^ ": monitored own") monitored
      (probe mon ~conn:"x" != probe None ~conn:"x");
    check Alcotest.bool (name ^ ": attributed own") false
      (probe ~alloc:(cell, None) None ~conn:"x" == probe None ~conn:"x")
  in
  let module R = Network.Router in
  shared "osr-rd" Conform.osr_rd;
  shared "msg-rd" Conform.msg_rd;
  shared "rd-cm" Conform.rd_cm;
  shared "cm-dm" Conform.cm_dm;
  shared "cm-rec" Conform.cm_rec;
  shared "rec-dm" Conform.rec_dm;
  shared ~monitored:false "router fwd" R.P_fwd.cells;
  shared ~monitored:false "router hello" R.P_hello.cells

(* [Host.sublayered], recording the name each endpoint is given. *)
let naming names =
  { Host.sublayered with
    Host.make =
      (fun ?ins engine ~name cfg ~local_port ~remote_port ~transmit ~events ->
        names := name :: !names;
        Host.sublayered.Host.make ?ins engine ~name cfg ~local_port ~remote_port
          ~transmit ~events) }

(* One short connection A -> B:80 under the given instruments: the names
   its two endpoints got, and A's registry. *)
let observed_run ?tracer ?monitors ?telemetry () =
  let engine = Sim.Engine.create ~seed:5 () in
  let names = ref [] in
  let stats_a = Sublayer.Stats.create ~label:"A" () in
  let a, b =
    Host.pair engine ~factory_a:(naming names) ~factory_b:(naming names) ~stats_a
      ?tracer ?monitors ?telemetry Sim.Channel.ideal
  in
  Host.listen b ~port:80;
  let c = Host.connect a ~remote_port:80 () in
  Host.write c "observed";
  Host.close c;
  Sim.Engine.run ~until:30. engine;
  check Alcotest.bool "closed" true (Host.closed c);
  (List.sort compare !names, stats_a)

(* With a monitor or a tracer attached, each endpoint still gets its full
   label, as monitor key and as span track, and probes of its own at
   every boundary, the application's included; with telemetry, cells at
   every seam. Without them, the host's name stands in and no
   allocation counter appears. *)
let test_observed_endpoints () =
  let labels = [ "A:49152>80"; "B:80>49152" ] in
  let names, stats_a = observed_run () in
  check Alcotest.(list string) "stats only: host names" [ "A"; "B" ] names;
  check Alcotest.bool "stats only: no allocation counters" false
    (List.exists
       (fun (k, _) -> Filename.check_suffix k "gc.minor_words")
       (Sublayer.Stats.snapshot stats_a));
  let monitors = Monitor.Runtime.create () in
  let names, _ = observed_run ~monitors () in
  check Alcotest.(list string) "monitor: labels" labels names;
  check
    Alcotest.(list string)
    "monitor: every boundary checked" [ "app"; "cm"; "dm"; "osr"; "rd" ]
    (List.filter_map
       (fun (sub, checked, violated) ->
         if checked > 0 && violated = 0 then Some sub else None)
       (Monitor.Runtime.verdicts monitors));
  let tracer = Sim.Tracer.create () in
  let names, _ = observed_run ~tracer () in
  check Alcotest.(list string) "tracer: labels" labels names;
  check Alcotest.(list string) "tracer: spans tracked by label" labels
    (List.sort_uniq compare
       (List.map (fun sp -> sp.Sim.Tracer.sp_track) (Sim.Tracer.spans tracer)));
  let names, stats_a = observed_run ~telemetry:(Sim.Telemetry.create ()) () in
  check Alcotest.(list string) "telemetry: no name read" [ "A"; "B" ] names;
  List.iter
    (fun sub ->
      let words =
        Sublayer.Stats.value
          (Sublayer.Stats.counter (Sublayer.Stats.scope stats_a sub) "gc.minor_words")
      in
      check Alcotest.bool (Printf.sprintf "telemetry: %s charged" sub) true (words > 0))
    [ "osr"; "rd"; "cm"; "dm"; "app"; "wire" ]

let test_host_port_exhaustion () =
  let engine = Sim.Engine.create () in
  let link = Sublayer.Link.make ~id:"L" ~transmit:ignore () in
  let host = Host.create engine ~factory:inert_factory ~name:"H" ~link () in
  let bound = [ (49152, 80); (50000, 80); (50000, 81); (65535, 80) ] in
  List.iter
    (fun (local_port, remote_port) ->
      ignore (Host.connect host ~local_port ~remote_port ()))
    bound;
  let taken = Hashtbl.create 16384 in
  List.iter (fun (p, _) -> Hashtbl.replace taken p ()) bound;
  let free = 16384 - Hashtbl.length taken in
  for i = 1 to free do
    let p = Host.local_port (Host.connect host ~remote_port:80 ()) in
    if p < 49152 || p > 65535 || Hashtbl.mem taken p then
      Alcotest.failf "connect %d got port %d, outside the range or taken" i p;
    Hashtbl.replace taken p ()
  done;
  check Alcotest.int "every ephemeral port handed out" 16384 (Hashtbl.length taken);
  (match Host.connect host ~remote_port:80 () with
  | _ -> Alcotest.fail "connect past exhaustion returned a connection"
  | exception Host.Ports_exhausted _ -> ());
  (* An explicit port still works once the ephemeral range is spent. *)
  let c = Host.connect host ~local_port:1000 ~remote_port:80 () in
  check Alcotest.int "explicit bind after exhaustion" 1000 (Host.local_port c)

(* --- Retirement: a host holds only its live connections --- *)

(* A server on [b]:80 that closes when its peer does and counts the
   accepted connections and those that received [expect ()] exactly. *)
type served = { mutable accepts : int; mutable exact : int; mutable last : Host.conn option }

let serve b expect =
  let sv = { accepts = 0; exact = 0; last = None } in
  Host.listen b ~port:80;
  Host.on_accept b (fun c ->
      sv.accepts <- sv.accepts + 1;
      sv.last <- Some c;
      Host.on_event c (function
        | `Peer_closed ->
            if Host.received_equal c (expect ()) then sv.exact <- sv.exact + 1;
            Host.close c
        | _ -> ()));
  sv

(* Connect to port 80, send [data], close, and run until nothing is
   scheduled: past the client's TIME_WAIT, so both ends have retired. *)
let sequential_flow engine a ?local_port data =
  let c = Host.connect a ?local_port ~remote_port:80 () in
  Host.write c data;
  Host.close c;
  Sim.Engine.run engine;
  c

let check_no_connections name hosts =
  List.iter
    (fun (side, h) ->
      check Alcotest.int (Printf.sprintf "%s: %s holds no connection" name side) 0
        (List.length (Host.connections h)))
    hosts

(* Every finished connection used to stay reachable from the host's
   table with its whole stack: 637 live words per flow after a full major
   GC. Retired, a flow leaves nothing behind (a flat 8 290 words), so at
   most 16 words per flow may accrue between flow 500 and flow 2 000. A
   shared monitor registry must not hold a retired connection either: it
   kept every attached instance, 172 words per flow. *)
let test_retired_flows_hold_no_memory () =
  List.iter
    (fun (name, monitors) ->
      let engine = Sim.Engine.create ~seed:3 () in
      let a, b =
        Host.pair engine ~stats_a:(Sublayer.Stats.create ())
          ~stats_b:(Sublayer.Stats.create ()) ?monitors Sim.Channel.ideal
      in
      let data = random_data 3 256 in
      let sv = serve b (fun () -> data) in
      let flows n =
        for _ = 1 to n do
          ignore (Sys.opaque_identity (sequential_flow engine a data))
        done;
        Gc.full_major ();
        (Gc.stat ()).Gc.live_words
      in
      let at_500 = flows 500 in
      let at_2000 = flows 1500 in
      let per = float_of_int (at_2000 - at_500) /. 1500. in
      check Alcotest.int (name ^ ": every flow exact") 2000 sv.exact;
      check Alcotest.bool
        (Printf.sprintf "%s: %.1f live words per flow (%d at flow 500, %d at 2000)" name per
           at_500 at_2000)
        true (per <= 16.);
      Option.iter
        (fun m ->
          check Alcotest.bool (name ^ ": monitors checked crossings") true
            (Monitor.Runtime.checked m > 0);
          check Alcotest.int (name ^ ": no violation") 0 (Monitor.Runtime.violation_count m))
        monitors;
      check_no_connections (name ^ " after 2 000 flows") [ ("A", a); ("B", b) ])
    [ ("stats", None); ("stats and monitors", Some (Monitor.Runtime.create ())) ]

(* A retired connection frees its port: one client completes more
   connections than there are ephemeral ports, and the picker wraps onto
   ports it handed out before. *)
let test_ephemeral_ports_reused () =
  let engine = Sim.Engine.create ~seed:4 () in
  let a, b = Host.pair engine Sim.Channel.ideal in
  let data = ref "" in
  let sv = serve b (fun () -> !data) in
  let n = 20_000 in
  let first = ref 0 in
  for i = 1 to n do
    data := string_of_int i;
    let c = sequential_flow engine a !data in
    if i = 1 then first := Host.local_port c;
    if i = 16_385 then
      check Alcotest.int "connection 16 385 reuses the first port" !first (Host.local_port c)
  done;
  check Alcotest.int "every connection accepted" n sv.accepts;
  check Alcotest.int "every connection exact" n sv.exact;
  check_no_connections "after 20 000 connections" [ ("A", a); ("B", b) ]

(* Churn over a lossy, slow link: 1 000 flows launched 5 ms apart, with
   every endpoint kind. Late FINs (a retransmission crossing the ACK that
   retired the server's connection) reach the listener; each spawns a
   connection its FIN leaves unopened, which must retire at once rather
   than sit in LISTEN for the host's life (46 did here, under both CM
   stacks). *)
let test_churn_leaves_no_stray () =
  List.iter
    (fun (name, factory) ->
      let engine = Sim.Engine.create ~seed:11 () in
      let a, b =
        Host.pair engine ~factory_a:factory ~factory_b:factory
          { (Sim.Channel.lossy 0.05) with Sim.Channel.delay = 0.02 }
      in
      let data = random_data 11 256 in
      let sv = serve b (fun () -> data) in
      let n = 1_000 in
      for i = 0 to n - 1 do
        ignore
          (Sim.Engine.schedule engine ~after:(0.005 *. float_of_int i) (fun () ->
               let c = Host.connect a ~remote_port:80 () in
               Host.write c data;
               Host.close c))
      done;
      Sim.Engine.run engine;
      check Alcotest.int (name ^ ": one accept per flow") n sv.accepts;
      check Alcotest.int (name ^ ": every flow exact") n sv.exact;
      check_no_connections (name ^ " after quiescence") [ ("A", a); ("B", b) ])
    [ ("sublayered", Host.sublayered);
      ("secure", Tcp_secure.factory ~key:Tcp_secure.demo_key);
      ("watson", Tcp_watson.factory);
      ("monolithic", Tcp_monolithic.factory);
      ("shim", Shim.factory) ]

let cm_header sl =
  Option.bind (Segment.decode_dm_slice sl) (fun (_, rest) ->
      Option.map fst (Segment.decode_cm_slice rest))

let is_fin sl =
  match cm_header sl with Some cm -> cm.Segment.flags.Segment.fin | None -> false

(* Sent after its sender learned the peer's ISN. *)
let echoes_isn sl =
  match cm_header sl with Some cm -> cm.Segment.isn_remote <> 0 | None -> false

(* A late segment of a connection both ends retired, replayed into the
   server: the client's one FIN under the handshake CM, and under
   Watson's the client's last segment that echoes the server's ISN (the
   flow spans more than one window, so there is one). It reaches the
   listener, and the connection it spawns drops it (counted in CM's
   [segments_dropped]), accepts nothing, sends nothing and leaves nothing
   in the table. The retired handles keep what they received and ignore
   the application. A fresh connection on the same port pair then
   completes exactly. *)
let test_late_fin_after_retirement () =
  List.iter
    (fun (name, factory, is_late, one_late, cm_scope) ->
      let engine = Sim.Engine.create ~seed:23 () in
      let late = ref [] in
      let capturing (f : Host.factory) =
        { f with
          Host.make =
            (fun ?ins engine ~name cfg ~local_port ~remote_port ~transmit ~events ->
              f.Host.make ?ins engine ~name cfg ~local_port ~remote_port ~events
                ~transmit:(fun sl ->
                  if is_late sl then late := Bitkit.Slice.to_string sl :: !late;
                  transmit sl)) }
      in
      let stats_b = Sublayer.Stats.create () in
      let a, b =
        Host.pair engine ~factory_a:(capturing factory) ~factory_b:factory ~stats_b
          Sim.Channel.ideal
      in
      let data = ref (random_data 23 20_000) in
      let sv = serve b (fun () -> !data) in
      let c = sequential_flow engine a !data in
      let check_int what = check Alcotest.int (name ^ ": " ^ what) in
      check_no_connections (name ^ ": retired") [ ("A", a); ("B", b) ];
      (match sv.last with
      | Some s ->
          check Alcotest.bool (name ^ ": server handle keeps its bytes") true
            (Host.received_equal s !data);
          check Alcotest.bool (name ^ ": server handle closed") true (Host.closed s)
      | None -> Alcotest.fail (name ^ ": never accepted"));
      check Alcotest.bool (name ^ ": client handle finished") true
        (Host.finished c && Host.closed c);
      let wire_a = Host.wire_link a and wire_b = Host.wire_link b in
      let sent_a = Sublayer.Link.transmitted wire_a in
      Host.write c "late";
      Host.consume c 10;
      Host.close c;
      check_int "a retired handle sends nothing" sent_a (Sublayer.Link.transmitted wire_a);
      let seg =
        match !late with
        | [ s ] -> s
        | s :: _ when not one_late -> s
        | l -> Alcotest.failf "%s: %d late segments captured" name (List.length l)
      in
      let dropped () =
        Option.value ~default:0
          (List.assoc_opt (cm_scope ^ ".segments_dropped") (Sublayer.Stats.snapshot stats_b))
      in
      let dropped0 = dropped () and sent_b = Sublayer.Link.transmitted wire_b in
      Host.from_wire b (Bitkit.Slice.of_string seg);
      check_int "late segment counted as dropped" (dropped0 + 1) (dropped ());
      check_int "late segment accepts nothing" 1 sv.accepts;
      check_int "late segment answered with nothing" sent_b (Sublayer.Link.transmitted wire_b);
      check_int "late segment schedules nothing" 0 (Sim.Engine.pending engine);
      check_no_connections (name ^ ": after the late segment") [ ("B", b) ];
      data := random_data 24 300;
      ignore (sequential_flow engine a ~local_port:(Host.local_port c) !data);
      check_int "fresh connection accepted" 2 sv.accepts;
      check_int "fresh connection exact" 2 sv.exact;
      check_no_connections (name ^ ": after the fresh connection") [ ("A", a); ("B", b) ])
    [ ("sublayered", Host.sublayered, is_fin, true, Cm.scope);
      ("watson", Tcp_watson.factory, echoes_isn, false, Cm_timer.scope) ]

(* Link death aborts the live connections and only them: a retired
   connection is out of the table, so it sees no second end. *)
let test_link_death_spares_retired () =
  let engine = Sim.Engine.create ~seed:29 () in
  let a, b = Host.pair engine Sim.Channel.ideal in
  let data = random_data 29 200 in
  ignore (serve b (fun () -> data));
  let aborts c =
    let n = ref 0 in
    Host.on_event c (function `Aborted -> incr n | _ -> ());
    n
  in
  let retired = List.init 3 (fun _ -> aborts (sequential_flow engine a data)) in
  let live =
    List.init 3 (fun _ ->
        let c = Host.connect a ~remote_port:80 () in
        Host.write c data;
        aborts c)
  in
  Sim.Engine.run ~until:(Sim.Engine.now engine +. 1.) engine;
  check Alcotest.int "live connections before the death" 3 (List.length (Host.connections a));
  Sublayer.Link.kill (Host.wire_link a);
  List.iter (fun n -> check Alcotest.int "live: one abort" 1 !n) live;
  List.iter (fun n -> check Alcotest.int "retired: no abort" 0 !n) retired;
  check_no_connections "after the death" [ ("A", a) ]

(* The [Note] text of a traced [Tcp_sublayered] connection, pinned as
   the runtime records it in the tracer (instants under "note"): a
   lossy handshake (one SYN retransmitted), a short write, both closes
   and a final halt. Each level of the stack prefixes its upper or lower
   sublayer's name, so CM's notes climb five prefixes and RD's three. *)
let note_pin =
  let cm = "mon/rd/mon/cm/mon/dm: rd/mon/cm/mon/dm: mon/cm/mon/dm: cm/mon/dm: cm: " in
  let rd = "mon/rd/mon/cm/mon/dm: rd/mon/cm/mon/dm: rd: " in
  [
    ("0.000000", "A", cm ^ "SYN_SENT (active open)");
    ("0.200000", "A", cm ^ "SYN retransmit #1");
    ("0.202000", "A", cm ^ "ESTABLISHED (syn|ack received)");
    ("0.203000", "B", cm ^ "ESTABLISHED (handshake ack)");
    ("0.402000", "A", rd ^ "rto retransmit offset=0 rto=0.40");
    ("0.404000", "A", cm ^ "FIN_WAIT_1 (local close)");
    ("0.605000", "B", cm ^ "CLOSE_WAIT (peer fin)");
    ("30.001000", "A", cm ^ "segment dropped (wrong phase or identity)");
    ("30.201000", "A", cm ^ "segment dropped (wrong phase or identity)");
    ("30.601000", "A", cm ^ "segment dropped (wrong phase or identity)");
    ("33.001000", "A", cm ^ "segment dropped (wrong phase or identity)");
    ("36.201000", "A", cm ^ "segment dropped (wrong phase or identity)");
    ("42.601000", "A", cm ^ "segment dropped (wrong phase or identity)");
    ("55.401000", "A", cm ^ "segment dropped (wrong phase or identity)");
    ("60.000000", "A", "halted");
  ]

let test_note_pin () =
  let engine = Sim.Engine.create ~seed:3 () in
  let tracer = Sim.Tracer.create () in
  let ins = Sublayer.Instrument.v ~tracer () in
  let to_a = ref (fun (_ : Bitkit.Slice.t) -> ()) in
  let to_b = ref (fun (_ : Bitkit.Slice.t) -> ()) in
  let ch dir =
    Sim.Channel.create engine (Sim.Channel.lossy 0.3) ~size:Bitkit.Slice.length
      ~deliver:(fun s -> !dir s)
      ()
  in
  let ab = ch to_b and ba = ch to_a in
  let mk name ~local_port ~remote_port ch =
    Tcp_sublayered.create engine ~ins ~name Config.default ~local_port ~remote_port
      ~transmit:(fun s -> Sim.Channel.send ch s)
      ~events:(fun _ -> ())
  in
  let a = mk "A" ~local_port:1000 ~remote_port:80 ab in
  let b = mk "B" ~local_port:80 ~remote_port:1000 ba in
  to_a := Tcp_sublayered.from_wire a;
  to_b := Tcp_sublayered.from_wire b;
  Tcp_sublayered.listen b;
  Tcp_sublayered.connect a;
  Tcp_sublayered.write a (String.make 3000 'x');
  Tcp_sublayered.close a;
  Sim.Engine.run ~until:30. engine;
  Tcp_sublayered.close b;
  Sim.Engine.run ~until:60. engine;
  Tcp_sublayered.halt a;
  let got =
    List.filter_map
      (fun (sp : Sim.Tracer.span) ->
        if sp.sp_sublayer <> "note" then None
        else Some (Printf.sprintf "%.6f" sp.sp_start, sp.sp_track, sp.sp_name))
      (Sim.Tracer.spans tracer)
  in
  check Alcotest.int "nothing evicted" 0 (Sim.Tracer.dropped tracer);
  check Alcotest.(list (triple string string string)) "trace entries" note_pin got

(* --- sublayered vs monolithic behavioural comparison (E12 support) --- *)

let test_sub_and_mono_same_outcomes () =
  List.iter
    (fun loss ->
      let s = transfer ~seed:21 (Sim.Channel.lossy loss) 30_000 in
      let m =
        transfer ~fa:Tcp_monolithic.factory ~fb:Tcp_monolithic.factory ~seed:21
          (Sim.Channel.lossy loss) 30_000
      in
      check Alcotest.bool "both deliver" true (s.ok && m.ok);
      (* completion times comparable (the drive loop quantises to 0.5 s
         slices, so compare with an absolute tolerance) *)
      if Float.abs (s.virtual_time -. m.virtual_time) > 2.0 then
        Alcotest.failf "loss %.2f: times diverge %.2f vs %.2f" loss s.virtual_time
          m.virtual_time)
    [ 0.0; 0.05 ]

let () =
  Alcotest.run "transport"
    [
      ( "segment",
        [
          Alcotest.test_case "dm codec" `Quick test_dm_codec;
          Alcotest.test_case "cm codec" `Quick test_cm_codec;
          Alcotest.test_case "rd codec + sacks" `Quick test_rd_codec_with_sacks;
          Alcotest.test_case "osr codec" `Quick test_osr_codec;
          prop_onion_roundtrip;
          prop_peek_ports;
          prop_osr_header;
          Alcotest.test_case "T3 layout audit" `Quick test_layout_t3;
        ] );
      ( "wire",
        [
          Alcotest.test_case "codec" `Quick test_wire_codec;
          Alcotest.test_case "checksum rejects" `Quick test_wire_checksum_rejects;
          Alcotest.test_case "options skipped" `Quick test_wire_options_skipped;
          prop_wire_roundtrip;
        ] );
      ( "isn",
        [
          Alcotest.test_case "generators" `Quick test_isn_generators;
          Alcotest.test_case "counter predictability" `Quick test_isn_predictability;
          Alcotest.test_case "off-path attack success" `Quick test_isn_attack_success;
          Alcotest.test_case "hashed separates tuples" `Quick test_isn_hashed_separates_tuples;
        ] );
      ( "cc",
        [
          Alcotest.test_case "reno dynamics" `Quick test_cc_reno_dynamics;
          Alcotest.test_case "all algorithms sane" `Quick test_cc_all_algorithms_sane;
          Alcotest.test_case "fixed constant" `Quick test_cc_fixed_constant;
        ] );
      ("ranges", [ Alcotest.test_case "intervals" `Quick test_ranges; prop_ranges_model ]);
      ( "cm",
        [
          Alcotest.test_case "handshake (pure)" `Quick test_cm_handshake_pure;
          Alcotest.test_case "old incarnation rejected" `Quick test_cm_rejects_old_incarnation;
          Alcotest.test_case "syn retx + give up" `Quick test_cm_syn_retransmission_and_give_up;
          Alcotest.test_case "simultaneous open" `Quick test_cm_simultaneous_open;
          Alcotest.test_case "malformed handshake rsts" `Quick
            test_cm_malformed_handshake_rst;
        ] );
      ( "e2e",
        [
          Alcotest.test_case "ideal 100KB" `Quick test_e2e_ideal;
          Alcotest.test_case "loss sweep (E3)" `Slow test_e2e_loss_sweep;
          Alcotest.test_case "harsh channel" `Quick test_e2e_harsh_reorder_dup;
          Alcotest.test_case "corruption + guard" `Quick test_e2e_corruption_with_guard;
          Alcotest.test_case "empty stream" `Quick test_e2e_empty_stream;
          Alcotest.test_case "single byte" `Quick test_e2e_single_byte;
          Alcotest.test_case "bidirectional echo" `Quick test_e2e_bidirectional_echo;
          Alcotest.test_case "regression: rto vs ack ordering" `Slow
            test_regression_rto_survives_ack_cancel;
        ] );
      ( "replace",
        [
          Alcotest.test_case "congestion control swap (E10)" `Slow test_replace_cc;
          Alcotest.test_case "isn swap (E10)" `Quick test_replace_isn;
          Alcotest.test_case "mixed peers (E13)" `Quick test_peering_mixed_mechanisms;
        ] );
      ( "ecn",
        [
          Alcotest.test_case "mark_ce surgical" `Quick test_mark_ce_rewrites_only_osr;
          Alcotest.test_case "marks slow sender, no loss" `Quick
            test_ecn_marks_slow_sender_without_loss;
        ] );
      ( "messages",
        [
          Alcotest.test_case "exactly once, any order" `Quick test_msg_exactly_once_any_order;
          Alcotest.test_case "avoids HOL blocking (E15)" `Quick test_msg_avoids_hol_blocking;
          Alcotest.test_case "fragmentation" `Quick test_msg_large_messages_fragment;
          Alcotest.test_case "empty message" `Quick test_msg_empty_message;
          Alcotest.test_case "module swap reuses stack" `Quick test_msg_stack_is_a_module_swap;
        ] );
      ( "features",
        [
          Alcotest.test_case "nagle coalesces" `Quick test_nagle_coalesces_tinygrams;
          Alcotest.test_case "delayed acks reduce acks" `Quick test_delayed_ack_halves_pure_acks;
          Alcotest.test_case "delayed acks keep dupacks prompt" `Quick
            test_delayed_ack_never_delays_dupacks;
          Alcotest.test_case "nagle x delayed-ack pathology" `Quick test_nagle_delack_pathology;
        ] );
      ( "secure",
        [
          Alcotest.test_case "seal/open" `Quick test_rec_seal_open;
          Alcotest.test_case "tamper rejected" `Quick test_rec_tamper_rejected;
          Alcotest.test_case "wrong key / direction" `Quick test_rec_wrong_key_and_direction;
          Alcotest.test_case "e2e corruption, no guard" `Quick test_secure_e2e_corruption_no_guard;
          Alcotest.test_case "key mismatch refuses" `Quick test_secure_wrong_key_no_connection;
          Alcotest.test_case "no plaintext on wire" `Quick test_secure_no_plaintext_on_wire;
        ] );
      ( "flow-control",
        [
          Alcotest.test_case "slow reader stalls sender (sublayered)" `Quick
            test_flow_control_sublayered;
          Alcotest.test_case "slow reader stalls sender (monolithic)" `Quick
            test_flow_control_monolithic;
          Alcotest.test_case "zero-window stall + persist" `Quick
            test_zero_window_survives_long_stall;
          Alcotest.test_case "advertised window tracks backlog" `Quick
            test_window_shrinks_with_backlog;
          Alcotest.test_case "rd cancels only armed timers" `Quick
            test_rd_cancels_only_armed_timers;
          Alcotest.test_case "osr cancels only an armed probe" `Quick
            test_osr_cancels_only_armed_persist;
        ] );
      ( "step cost",
        [
          Alcotest.test_case "rd data-path steps" `Quick test_rd_step_words;
          Alcotest.test_case "rd sack words flat in the queue" `Quick test_rd_sack_words_flat;
          Alcotest.test_case "osr idle ack decodes only" `Quick test_osr_idle_ack_words;
          prop_rd_scoreboard;
          Alcotest.test_case "rd sequence numbers wrap" `Quick test_rd_sequence_wrap;
        ] );
      ( "watson",
        [
          Alcotest.test_case "delivers" `Quick test_watson_delivers;
          Alcotest.test_case "bidirectional" `Quick test_watson_bidirectional;
          Alcotest.test_case "idle-timer closure" `Quick test_watson_idle_closure;
          Alcotest.test_case "0-RTT vs handshake" `Quick test_watson_skips_handshake_rtt;
          Alcotest.test_case "stale incarnation dropped" `Quick test_watson_rejects_stale_identity;
        ] );
      ( "monolithic",
        [
          Alcotest.test_case "e2e loss" `Quick test_mono_e2e;
          Alcotest.test_case "harsh" `Quick test_mono_harsh;
          Alcotest.test_case "checksum vs corruption" `Quick test_mono_checksum_drops_corruption;
        ] );
      ( "shim",
        [
          Alcotest.test_case "header translation" `Quick test_shim_translation_isomorphism;
          Alcotest.test_case "interop both directions (E4)" `Slow test_interop_both_directions;
          Alcotest.test_case "interop bidirectional" `Quick test_interop_bidirectional;
          Alcotest.test_case "E4 wire bytes pinned" `Quick test_wire_bytes_pinned;
        ] );
      ( "host",
        [
          Alcotest.test_case "multiplexing" `Quick test_host_multiplexing;
          Alcotest.test_case "no listener" `Quick test_host_no_listener_ignored;
          Alcotest.test_case "take_received" `Quick test_host_take_received;
          Alcotest.test_case "ephemeral port exhaustion" `Quick test_host_port_exhaustion;
          Alcotest.test_case "unobserved endpoint words" `Quick
            test_unobserved_endpoint_words;
          Alcotest.test_case "inert probes shared" `Quick test_inert_probes_shared;
          Alcotest.test_case "observed endpoints labelled" `Quick test_observed_endpoints;
        ] );
      ( "retirement",
        [
          Alcotest.test_case "retired flows hold no memory" `Quick
            test_retired_flows_hold_no_memory;
          Alcotest.test_case "ephemeral ports reused" `Quick test_ephemeral_ports_reused;
          Alcotest.test_case "churn leaves no stray" `Quick test_churn_leaves_no_stray;
          Alcotest.test_case "late FIN after retirement" `Quick test_late_fin_after_retirement;
          Alcotest.test_case "link death spares retired" `Quick test_link_death_spares_retired;
        ] );
      ("notes", [ Alcotest.test_case "handshake trace pinned" `Quick test_note_pin ]);
      ( "comparison",
        [ Alcotest.test_case "sub vs mono outcomes" `Slow test_sub_and_mono_same_outcomes ] );
    ]
