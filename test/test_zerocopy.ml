(* Property tests for the zero-copy data path: every header's slice
   reader must agree with its [Codec_oracle] reference on random inputs
   (including truncated and garbage ones, without raising), its writer
   must emit the reference bytes through the wirebuf push path, slice
   decoding must be position-independent (a view into the middle of a
   larger buffer decodes the same). *)

open Transport

let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let payload_gen = QCheck2.Gen.(string_size ~gen:char (0 -- 64))
let garbage_gen = QCheck2.Gen.(string_size ~gen:char (0 -- 24))

(* --- Generators for each sublayer's header --- *)

let u16 = QCheck2.Gen.(0 -- 0xFFFF)
let u32 = QCheck2.Gen.(0 -- 0xFFFFFFFF)

(* A field as a caller may hand it to a writer: mostly within its width,
   sometimes any int at all, negative ones included. The writers must
   mask exactly as [Bitio] does. *)
let wide bits =
  QCheck2.Gen.(frequency [ (3, 0 -- ((1 lsl bits) - 1)); (1, int) ])

let dm_of u16 =
  QCheck2.Gen.(
    map (fun (s, d) -> { Segment.src_port = s; dst_port = d }) (pair u16 u16))

let cm_of u32 =
  QCheck2.Gen.(
    map
      (fun ((syn, ack, fin, rst), (il, ir)) ->
        { Segment.flags = { syn; ack; fin; rst }; isn_local = il; isn_remote = ir })
      (pair (quad bool bool bool bool) (pair u32 u32)))

let rd_of u16 u32 =
  QCheck2.Gen.(
    map
      (fun ((seq, ack, len), (has_data, has_ack), sacks) ->
        { Segment.seq; ack; len; has_data; has_ack;
          sacks =
            List.map
              (fun (a, b) -> { Segment.sack_start = a; sack_end = b })
              sacks })
      (triple (triple u32 u32 u16) (pair bool bool)
         (list_size (0 -- 3) (pair u32 u32))))

let osr_of u16 =
  QCheck2.Gen.(
    map
      (fun (window, ecn_echo, ecn_ce) -> { Segment.window; ecn_echo; ecn_ce })
      (triple u16 bool bool))

let wire_of u16 u32 =
  QCheck2.Gen.(
    map
      (fun ((sp, dp, seq, ack), (urg, a, psh, rst), (syn, fin, window)) ->
        { Wire.src_port = sp; dst_port = dp; seq; ack;
          flags = { Wire.urg; ack = a; psh; rst; syn; fin }; window })
      (triple (quad u16 u16 u32 u32) (quad bool bool bool bool)
         (triple bool bool u16)))

let msg_of u16 =
  QCheck2.Gen.(
    map
      (fun ((window, msg_id), (frag_off, msg_len)) ->
        { Msg.window; msg_id; frag_off; msg_len })
      (pair (pair u16 u16) (pair u16 u16)))

(* Decode a slice that sits in the middle of a larger buffer, so any
   confusion of absolute and view-relative offsets shows up. *)
let offset_slice s =
  let padded = "\xAA\xBB\xCC" ^ s ^ "\xDD" in
  Bitkit.Slice.sub (Bitkit.Slice.of_string padded) ~pos:3 ~len:(String.length s)

(* The oracle's [decode] and the library's [decode_slice], read whole and
   as a mid-buffer view, agree on [s]. *)
let agree decode decode_slice s =
  match
    (decode s, decode_slice (Bitkit.Slice.of_string s), decode_slice (offset_slice s))
  with
  | None, None, None -> true
  | Some (h1, p1), Some (h2, p2), Some (h3, p3) ->
      h1 = h2 && h1 = h3
      && Bitkit.Slice.equal_string p2 p1
      && Bitkit.Slice.equal_string p3 p1
  | _ -> false

(* One header reader against its [Codec_oracle] reference
   [encode]/[decode]: the library's [decode_slice] must agree with it on
   valid, garbage and truncated input, read whole or as a mid-buffer
   view. *)
let reader_props name hgen ~wide ~encode ~decode ~decode_slice =
  [ qtest (name ^ ": slice decode = string decode")
      (QCheck2.Gen.pair hgen payload_gen)
      (fun (h, p) ->
        let s = encode h ~payload:p in
        match (decode s, decode_slice (Bitkit.Slice.of_string s)) with
        | Some (h1, p1), Some (h2, p2) ->
            h1 = h && h2 = h && p1 = p && Bitkit.Slice.equal_string p2 p
        | _ -> false);
    qtest (name ^ ": mid-buffer slice decodes the same")
      (QCheck2.Gen.pair hgen payload_gen)
      (fun (h, p) ->
        let s = encode h ~payload:p in
        match decode_slice (offset_slice s) with
        | Some (h', p') -> h' = h && Bitkit.Slice.equal_string p' p
        | None -> false);
    qtest (name ^ ": garbage never raises, decoders agree") garbage_gen
      (agree decode decode_slice);
    qtest (name ^ ": truncation -> None without raising")
      (QCheck2.Gen.pair wide payload_gen)
      (fun (h, p) ->
        (* every strict prefix must decode alike everywhere, and every
           prefix short of the whole header (SACK blocks included) must
           be rejected *)
        let s = encode h ~payload:p in
        let header_len = String.length (encode h ~payload:"") in
        List.for_all
          (fun cut ->
            let short = String.sub s 0 cut in
            agree decode decode_slice short
            && (cut >= header_len || decode_slice (offset_slice short) = None))
          (List.init (String.length s) Fun.id))
  ]

(* ... and the library's [write] must emit the reference bytes for any
   field values [wide] draws. *)
let codec_props name hgen ~wide ~encode ~decode ~decode_slice ~write ~owner =
  reader_props name hgen ~wide ~encode ~decode ~decode_slice
  @ [ qtest (name ^ ": wirebuf push emits identical bytes")
        (QCheck2.Gen.pair wide payload_gen)
        (fun (h, p) ->
          let wb = Bitkit.Wirebuf.push (Bitkit.Wirebuf.of_string p) ~owner (write h) in
          Bitkit.Wirebuf.to_string wb = encode h ~payload:p)
    ]

(* Each Figure 6 header must be exactly its owner's bits in the layout,
   plus one 64-bit block per SACK for RD. *)
let transport_props name hgen wgen ~encode ~decode ~decode_slice ~write ~sack_blocks =
  codec_props name hgen ~wide:wgen ~encode ~decode ~decode_slice ~write ~owner:name
  @ [ qtest (name ^ ": header bits = layout bits") wgen (fun h ->
          8 * String.length (write h)
          = Sublayer.Layout.bits_of Segment.layout name + (64 * sack_blocks h))
    ]

let no_sacks _ = 0

let dm_props =
  transport_props "dm" (dm_of u16) (dm_of (wide 16))
    ~encode:Codec_oracle.encode_dm ~decode:Codec_oracle.decode_dm
    ~decode_slice:Segment.decode_dm_slice ~write:Segment.write_dm ~sack_blocks:no_sacks

let cm_props =
  transport_props "cm" (cm_of u32) (cm_of (wide 32))
    ~encode:Codec_oracle.encode_cm ~decode:Codec_oracle.decode_cm
    ~decode_slice:Segment.decode_cm_slice ~write:Segment.write_cm ~sack_blocks:no_sacks

let rd_props =
  transport_props "rd" (rd_of u16 u32) (rd_of (wide 16) (wide 32))
    ~encode:Codec_oracle.encode_rd ~decode:Codec_oracle.decode_rd
    ~decode_slice:Segment.decode_rd_slice ~write:Segment.write_rd
    ~sack_blocks:(fun h -> List.length h.Segment.sacks)

let osr_props =
  transport_props "osr" (osr_of u16) (osr_of (wide 16))
    ~encode:Codec_oracle.encode_osr ~decode:Codec_oracle.decode_osr
    ~decode_slice:Segment.decode_osr_slice ~write:Segment.write_osr ~sack_blocks:no_sacks

let msg_props =
  codec_props "msg" (msg_of u16) ~wide:(msg_of (wide 16))
    ~encode:Codec_oracle.Msg.encode_header ~decode:Codec_oracle.Msg.decode_header
    ~decode_slice:Msg.decode_header_slice ~write:Msg.write_header ~owner:"msg"

(* --- The RFC 793 header (checksummed, so garbage mostly fails) --- *)

(* [Wire.encode] writes the whole segment, checksum included, so it is
   held to the oracle's encoder directly; [Wire.decode_slice] is held to
   the oracle's decoder like every reader (odd-length payloads
   included), and also on segments carrying 4 to 40 option bytes
   ([data_offset] 6 to 15), every truncation of those, and any one
   flipped bit. *)

let wire_gen = wire_of u16 u32
let wire_wide = wire_of (wide 16) (wide 32)
let wire_agree = agree Codec_oracle.Wire.decode Wire.decode_slice

(* [s] rewritten with [data_offset] [5 + words] and [words] option words
   spliced in after the fixed header, its checksum recomputed. *)
let with_options s ~words ~fill =
  let b =
    Bytes.of_string
      (String.sub s 0 20 ^ String.make (4 * words) fill
      ^ String.sub s 20 (String.length s - 20))
  in
  Bytes.set_uint8 b 12 (((5 + words) lsl 4) lor (Bytes.get_uint8 b 12 land 0x0F));
  Bytes.set_uint16_be b 16 0;
  Bytes.set_uint16_be b 16 (Bitkit.Checksum.internet (Bytes.to_string b));
  Bytes.to_string b

let wire_props =
  reader_props "wire" wire_gen ~wide:wire_wide
    ~encode:Codec_oracle.Wire.encode ~decode:Codec_oracle.Wire.decode
    ~decode_slice:Wire.decode_slice
  @ [ qtest "wire: encode = oracle encode"
        (QCheck2.Gen.pair wire_wide payload_gen)
        (fun (h, p) -> Wire.encode h ~payload:p = Codec_oracle.Wire.encode h ~payload:p);
      qtest "wire: options skipped as the oracle skips them"
        QCheck2.Gen.(triple (pair wire_gen payload_gen) (1 -- 10) char)
        (fun ((h, p), words, fill) ->
          let s = with_options (Wire.encode h ~payload:p) ~words ~fill in
          (match Wire.decode_slice (offset_slice s) with
          | Some (h', p') -> h' = h && Bitkit.Slice.equal_string p' p
          | None -> false)
          && List.for_all
               (fun cut -> wire_agree (String.sub s 0 cut))
               (List.init (String.length s + 1) Fun.id));
      qtest "wire: a flipped bit is rejected"
        QCheck2.Gen.(pair (pair wire_gen payload_gen) nat)
        (fun ((h, p), k) ->
          let b = Bytes.of_string (Wire.encode h ~payload:p) in
          let k = k mod (8 * Bytes.length b) in
          Bytes.set_uint8 b (k / 8) (Bytes.get_uint8 b (k / 8) lxor (0x80 lsr (k mod 8)));
          let bad = Bytes.to_string b in
          wire_agree bad && Wire.decode_slice (Bitkit.Slice.of_string bad) = None)
    ]

(* --- ARQ PDUs --- *)

let arq_pdu_gen u16 =
  QCheck2.Gen.(
    bind bool (fun is_data ->
        if is_data then
          map (fun (seq, p) -> Codec_oracle.Arq.Data (seq, p)) (pair u16 payload_gen)
        else map (fun seq -> Codec_oracle.Arq.Ack seq) u16))

let arq_agrees pdu rx =
  match (pdu, rx) with
  | Some (Codec_oracle.Arq.Data (s1, p1)), Some (Datalink.Arq.Rx_data (s2, p2)) ->
      s1 = s2 && Bitkit.Slice.equal_string p2 p1
  | Some (Codec_oracle.Arq.Ack s1), Some (Datalink.Arq.Rx_ack s2) -> s1 = s2
  | None, None -> true
  | _ -> false

(* The oracle's decode and the library's, whole and mid-buffer. *)
let arq_agree s =
  let pdu = Codec_oracle.Arq.decode_pdu s in
  arq_agrees pdu (Datalink.Arq.decode_pdu_slice (Bitkit.Slice.of_string s))
  && arq_agrees pdu (Datalink.Arq.decode_pdu_slice (offset_slice s))

let arq_props =
  [ qtest "arq: slice decode = string decode" (arq_pdu_gen u16) (fun pdu ->
        let s = Codec_oracle.Arq.encode_pdu pdu in
        arq_agrees (Some pdu) (Datalink.Arq.decode_pdu_slice (offset_slice s))
        && arq_agree s);
    qtest "arq: wirebuf forms emit identical bytes" (arq_pdu_gen (wide 16)) (fun pdu ->
        let wb =
          match pdu with
          | Codec_oracle.Arq.Data (seq, p) -> Datalink.Arq.data_wirebuf ~seq p
          | Codec_oracle.Arq.Ack seq -> Datalink.Arq.ack_wirebuf seq
        in
        Bitkit.Wirebuf.to_string wb = Codec_oracle.Arq.encode_pdu pdu);
    qtest "arq: truncation and trailing bytes, decoders agree"
      QCheck2.Gen.(pair (arq_pdu_gen u16) garbage_gen)
      (fun (pdu, tail) ->
        let s = Codec_oracle.Arq.encode_pdu pdu in
        arq_agree (s ^ tail)
        && List.for_all
             (fun cut -> arq_agree (String.sub s 0 cut))
             (List.init (String.length s) Fun.id));
    qtest "arq: garbage never raises, decoders agree" garbage_gen arq_agree
  ]

(* --- Error detectors: verify_slice = verify, in place --- *)

let detectors =
  [ Datalink.Detector.none; Datalink.Detector.parity;
    Datalink.Detector.internet; Datalink.Detector.fletcher16;
    Datalink.Detector.crc Bitkit.Crc.crc16_ccitt;
    Datalink.Detector.crc Bitkit.Crc.crc32 ]

let detector_props =
  List.concat_map
    (fun d ->
      let name = d.Datalink.Detector.name in
      [ qtest (name ^ ": verify_slice accepts protect output") payload_gen
          (fun p ->
            let f = d.Datalink.Detector.protect p in
            match
              ( d.Datalink.Detector.verify f,
                d.Datalink.Detector.verify_slice (offset_slice f) )
            with
            | Some b1, Some b2 -> b1 = p && Bitkit.Slice.equal_string b2 p
            | _ -> false);
        qtest (name ^ ": verify_slice = verify on damaged frames")
          QCheck2.Gen.(pair payload_gen (pair u16 (0 -- 255)))
          (fun (p, (pos, byte)) ->
            let f = Bytes.of_string (d.Datalink.Detector.protect p) in
            if Bytes.length f = 0 then true
            else begin
              Bytes.set f (pos mod Bytes.length f) (Char.chr byte);
              let f = Bytes.to_string f in
              match
                ( d.Datalink.Detector.verify f,
                  d.Datalink.Detector.verify_slice (Bitkit.Slice.of_string f) )
              with
              | None, None -> true
              | Some b1, Some b2 -> Bitkit.Slice.equal_string b2 b1
              | _ -> false
            end)
      ])
    detectors

(* --- Chain digests: the transmit-side twin of verify_slice --- *)

(* A wirebuf with a random header chain over a random payload — the
   shape the detector sees from the ARQ above. *)
let header_gen = QCheck2.Gen.(string_size ~gen:char (1 -- 12))

let wirebuf_gen =
  QCheck2.Gen.(
    map
      (fun (p, headers) ->
        List.fold_left
          (fun wb h ->
            Bitkit.Wirebuf.push wb ~owner:"hdr" h)
          (Bitkit.Wirebuf.of_string p) headers)
      (pair payload_gen (list_size (0 -- 4) header_gen)))

let protect_trailer d flat =
  let n = d.Datalink.Detector.overhead_bytes in
  let f = d.Datalink.Detector.protect flat in
  String.sub f (String.length f - n) n

let chain_digest_props =
  List.concat_map
    (fun d ->
      let name = d.Datalink.Detector.name in
      let n = d.Datalink.Detector.overhead_bytes in
      [ qtest (name ^ ": chain digest = flattened digest") wirebuf_gen
          (fun wb ->
            let trailer = protect_trailer d (Bitkit.Wirebuf.to_string wb) in
            (* Guard bytes on both sides: the digest writer must touch
               exactly its [n] bytes. *)
            let b = Bytes.make (n + 2) '\x55' in
            d.Datalink.Detector.chain_digest_into wb b 1;
            Bytes.get b 0 = '\x55'
            && Bytes.get b (n + 1) = '\x55'
            && Bytes.sub_string b 1 n = trailer);
        qtest (name ^ ": chain digest over a mid-buffer payload view")
          (QCheck2.Gen.pair payload_gen header_gen)
          (fun (p, h) ->
            let wb =
              Bitkit.Wirebuf.push
                (Bitkit.Wirebuf.of_slice (offset_slice p))
                ~owner:"hdr" h
            in
            let trailer = protect_trailer d (Bitkit.Wirebuf.to_string wb) in
            let b = Bytes.make (max n 1) '\x00' in
            d.Datalink.Detector.chain_digest_into wb b 0;
            Bytes.sub_string b 0 n = trailer);
        qtest (name ^ ": pooled protect emits identical frames") wirebuf_gen
          (fun wb ->
            let out t =
              match Datalink.Layers.Error_detection.handle_up_req t wb with
              | _, [ Sublayer.Machine.Down s ] ->
                  Some (Bitkit.Slice.to_string s)
              | _ -> None
            in
            let pool = Bitkit.Pool.create ~slots:2 ~slot_bytes:256 () in
            let heap = out (Datalink.Layers.Error_detection.make d) in
            let pooled = out (Datalink.Layers.Error_detection.make ~pool d) in
            Bitkit.Pool.drain_deferred pool;
            (* An exhausted pool must fall back to the same bytes. *)
            let hold = List.init 2 (fun _ -> Bitkit.Pool.loan pool ~len:1) in
            let starved =
              out (Datalink.Layers.Error_detection.make ~pool d)
            in
            List.iter (Bitkit.Pool.release pool) hold;
            Bitkit.Pool.drain_deferred pool;
            (* [none] on an empty wirebuf legitimately emits an empty
               frame, so emptiness is not a failure — only a missing
               [Down] action is. *)
            (match (heap, pooled, starved) with
            | Some h, Some p, Some s -> h = p && h = s
            | _ -> false)
            && Bitkit.Pool.in_use pool = 0) ])
    detectors

(* --- Pooled emits are invisible on the wire --- *)

(* The Rec sublayer's one seal writer, fed a pool slot or a fresh buffer,
   must produce records byte-identical to each other and to the legacy
   string-concatenation seal (the test oracle), seq after seq, whether
   the PDU arrives flat or with headers still stacked on it. *)
let test_rec_pooled_seal_identical () =
  let key = String.init 32 (fun i -> Char.chr (i * 7 land 0xFF)) in
  let mk ?pool () = Rec.initial ?pool ~key ~local_port:4242 ~remote_port:99 () in
  let pool = Bitkit.Pool.create ~slots:4 ~slot_bytes:512 () in
  let heap = ref (mk ()) in
  let pooled = ref (mk ~pool ()) in
  for i = 0 to 19 do
    let payload = Printf.sprintf "rec-%d-%s" i (String.make (i * 13) 'r') in
    let wb =
      if i mod 2 = 0 then Bitkit.Wirebuf.of_string payload
      else
        Bitkit.Wirebuf.push (Bitkit.Wirebuf.of_string payload) ~owner:"cm"
          (String.init 3 (fun k -> Char.chr ((i lsr (16 - (8 * k))) land 0xFF)))
    in
    let out r =
      match Rec.handle_up_req !r wb with
      | t, [ Sublayer.Machine.Down w ] ->
          r := t;
          Bitkit.Wirebuf.to_string w
      | _ -> Alcotest.fail "rec did not emit a record"
    in
    let a = out heap in
    let b = out pooled in
    Bitkit.Pool.drain_deferred pool;
    let legacy =
      Crypto_oracle.Record.seal ~key ~port:4242 ~seq:i (Bitkit.Wirebuf.to_string wb)
    in
    Alcotest.(check string) (Printf.sprintf "record %d heap = legacy" i) legacy a;
    Alcotest.(check string) (Printf.sprintf "record %d pooled = legacy" i) legacy b
  done;
  Alcotest.(check int) "no slot leaked" 0 (Bitkit.Pool.in_use pool);
  Alcotest.(check int) "every pooled record took a slot" 20 (Bitkit.Pool.loans pool)

(* [handle_down_ind] accepts and rejects exactly what the legacy open
   does — valid, bit-flipped, truncated, wrong-port and wrong-key
   records, read through a view into the middle of a larger buffer — and
   counts the same authentication failures. One deliberate difference:
   the legacy open re-serialised the sequence number from a 63-bit int,
   so it never authenticated the record's top bit (bit 7 of byte 7) and
   accepted a record with that bit flipped. The tag now covers the bytes
   as received. *)
type damage = Intact | Flip of int | Truncate of int | Wrong_port | Wrong_key

let damage_gen =
  QCheck2.Gen.(
    oneof
      [ return Intact; map (fun b -> Flip b) (0 -- 100_000);
        map (fun n -> Truncate n) (0 -- 40); return Wrong_port; return Wrong_key ])

let prop_rec_open_matches_legacy =
  qtest ~count:400 "rec open = legacy open (accept/reject, failures)"
    QCheck2.Gen.(
      quad (string_size ~gen:char (return 32)) (0 -- 3) (string_size ~gen:char (0 -- 300))
        damage_gen)
    (fun (key, seq, payload, damage) ->
      let record = Crypto_oracle.Record.seal ~key ~port:7 ~seq payload in
      let record, rx_port, rx_key =
        match damage with
        | Intact -> (record, 7, key)
        | Flip b ->
            let b = b mod (8 * String.length record) in
            let r = Bytes.of_string record in
            Bytes.set r (b / 8)
              (Char.chr (Char.code record.[b / 8] lxor (1 lsl (b mod 8))));
            (Bytes.to_string r, 7, key)
        | Truncate n -> (String.sub record 0 (min n (String.length record)), 7, key)
        | Wrong_port -> (record, 8, key)
        | Wrong_key -> (record, 7, String.map (fun c -> Char.chr (Char.code c lxor 1)) key)
      in
      let legacy = Crypto_oracle.Record.open_ ~key:rx_key ~port:rx_port record in
      let expected =
        match damage with
        | Flip b when b mod (8 * String.length record) = 63 -> None
        | _ -> legacy
      in
      let rx = Rec.initial ~key:rx_key ~local_port:rx_port ~remote_port:rx_port () in
      let framed = "...." ^ record ^ "!!" in
      let view = Bitkit.Slice.sub (Bitkit.Slice.of_string framed) ~pos:4 ~len:(String.length record) in
      let got =
        match Rec.handle_down_ind rx view with
        | _, [ Sublayer.Machine.Up s ] -> Some (Bitkit.Slice.to_string s)
        | _, [ Sublayer.Machine.Note _ ] -> None
        | _ -> Alcotest.fail "unexpected rec actions"
      in
      let failures = if String.length record >= 16 && expected = None then 1 else 0 in
      got = expected
      && Rec.open_ rx record = expected
      && Rec.auth_failures rx = 2 * failures)

let test_rec_seq_top_bit_authenticated () =
  let key = String.make 32 'q' in
  let record = Bytes.of_string (Crypto_oracle.Record.seal ~key ~port:7 ~seq:5 "top bit") in
  Bytes.set record 7 (Char.chr (Char.code (Bytes.get record 7) lxor 0x80));
  let record = Bytes.to_string record in
  Alcotest.(check (option string)) "legacy open accepted the flipped bit" (Some "top bit")
    (Crypto_oracle.Record.open_ ~key ~port:7 record);
  let rx = Rec.initial ~key ~local_port:7 ~remote_port:7 () in
  Alcotest.(check (option string)) "rec rejects it" None (Rec.open_ rx record);
  Alcotest.(check int) "and counts the failure" 1 (Rec.auth_failures rx)

(* A pooled fabric run must be schedule-identical to the unpooled run —
   loans change where bytes live, never what happens, down to the
   per-slice live-event samples — while actually exercising the arena,
   and must hand every slot back by the end. *)
let test_pooled_unpooled_identical () =
  let pool = Bitkit.Pool.create ~slots:512 ~slot_bytes:2048 () in
  Fingerprint.check_same
    (Fingerprint.run ~seed:33 ())
    (Fingerprint.run ~seed:33 ~pool ());
  Alcotest.(check bool) "the arena was exercised" true (Bitkit.Pool.loans pool > 0);
  Alcotest.(check int) "every slot handed back" 0 (Bitkit.Pool.in_use pool)

(* --- The T3 audit on the real transmit path --- *)

(* Arm [Segment.audit_tx]: DM now checks every outgoing wirebuf's header
   stack against the Figure 6 layout. A full seeded transfer must pass. *)
let test_audit_armed () =
  Segment.audit_tx := true;
  Fun.protect
    ~finally:(fun () -> Segment.audit_tx := false)
    (fun () ->
      let engine = Sim.Engine.create ~seed:21 () in
      let fabric =
        Transport.Fabric.create engine ~hosts:2
          ~channel:(Sim.Channel.lossy 0.02) ~flows:8 ~bytes:4096 ()
      in
      let r =
        Sim.Workload.run ~name:"audit" ~engine ~flows:8
          (Transport.Fabric.ops fabric)
      in
      if not (Sim.Workload.ok r) then
        Alcotest.failf "audited workload not ok: %a" Sim.Workload.pp_report r)

(* And the audit itself must reject malformed stacks. *)
let test_audit_rejects () =
  let bad stack =
    match Sublayer.Layout.check_appendix Segment.layout stack with
    | Ok () -> false
    | Error _ -> true
  in
  Alcotest.(check bool) "wrong order rejected" true
    (bad [ ("cm", 72); ("dm", 32); ("rd", 88); ("osr", 24) ]);
  Alcotest.(check bool) "unknown owner rejected" true
    (bad [ ("msg", 64); ("rd", 88); ("cm", 72); ("dm", 32) ]);
  Alcotest.(check bool) "short header rejected" true
    (bad [ ("dm", 16); ("cm", 72); ("rd", 88); ("osr", 24) ]);
  Alcotest.(check bool) "good stack accepted" false
    (bad [ ("dm", 32); ("cm", 72); ("rd", 88); ("osr", 24) ])

(* The copy counter is shared process state bumped from every shard
   domain; hammer it from two domains at once and demand the exact sum —
   a plain [ref] loses updates here (incr is a read-modify-write), the
   [Atomic.t] must not. *)
let test_copy_counter_atomic () =
  Bitkit.Slice.reset_copied ();
  let iters = 1_000_000 in
  let hammer () =
    for _ = 1 to iters do
      Bitkit.Slice.note_copy 1
    done
  in
  let d = Domain.spawn hammer in
  hammer ();
  Domain.join d;
  Alcotest.(check int) "no lost updates" (2 * iters)
    (Bitkit.Slice.copied_bytes ());
  Bitkit.Slice.reset_copied ()

let () =
  Alcotest.run "zerocopy"
    [
      ("dm", dm_props);
      ("cm", cm_props);
      ("rd", rd_props);
      ("osr", osr_props);
      ("msg", msg_props);
      ("wire", wire_props);
      ("arq", arq_props);
      ("detector", detector_props);
      ("chain-digest", chain_digest_props);
      ( "pool",
        [
          Alcotest.test_case "rec pooled seal = legacy seal" `Quick
            test_rec_pooled_seal_identical;
          prop_rec_open_matches_legacy;
          Alcotest.test_case "rec authenticates the seq top bit" `Quick
            test_rec_seq_top_bit_authenticated;
          Alcotest.test_case "pooled fabric run schedule-identical" `Quick
            test_pooled_unpooled_identical;
        ] );
      ( "audit",
        [
          Alcotest.test_case "armed on the wire path" `Quick test_audit_armed;
          Alcotest.test_case "rejects malformed stacks" `Quick
            test_audit_rejects;
        ] );
      ( "atomicity",
        [
          Alcotest.test_case "copy counter survives two domains" `Quick
            test_copy_counter_atomic;
        ] );
    ]
