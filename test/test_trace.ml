(* Tests for the span-tracing subsystem: retransmission lineage (a
   re-sent segment is a child of the original send, in the same trace),
   the Chrome trace_event exporter, the sum-of-sojourns identity, and
   the zero-cost disabled path. *)

let check = Alcotest.check
module Tracer = Sim.Tracer

let all_spans tracer = Tracer.spans tracer @ Tracer.live_spans tracer

(* --- shared harnesses --- *)

let transport_run ?(loss = 0.0) ?(delay = 0.02) ?(bytes = 30_000) ~seed tracer =
  let open Transport in
  let engine = Sim.Engine.create ~seed () in
  let a, b = Host.pair engine ~tracer { (Sim.Channel.lossy loss) with delay } in
  Host.listen b ~port:80;
  let server = ref None in
  Host.on_accept b (fun c -> server := Some c);
  let c = Host.connect a ~remote_port:80 () in
  let data = String.init bytes (fun i -> Char.chr (i land 0xFF)) in
  Host.write c data;
  Host.close c;
  let rec drive () =
    if Sim.Engine.now engine < 600. && not (Host.finished c) then begin
      Sim.Engine.run ~until:(Sim.Engine.now engine +. 0.1) engine;
      drive ()
    end
  in
  drive ();
  Sim.Engine.run ~until:(Sim.Engine.now engine +. 30.) engine;
  match !server with Some srv -> Host.received srv = data | None -> false

(* Every "retx" marker must be the child of a "flight" span in that same
   trace — the causal lineage the tracer promises. This includes a
   retransmission of a segment whose first copy was already delivered
   (ack lost): its original flight span has finished, and [trace_of]'s
   ring fallback is what keeps the lineage intact. *)
let assert_retx_lineage ~sublayer tracer =
  let all = all_spans tracer in
  let by_id = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace by_id s.Tracer.sp_id s) all;
  let retx =
    List.filter
      (fun s -> s.Tracer.sp_sublayer = sublayer && s.Tracer.sp_name = "retx")
      all
  in
  check Alcotest.bool "lossy run retransmitted" true (retx <> []);
  List.iter
    (fun r ->
      check Alcotest.bool "every retx carries its original trace" true
        (r.Tracer.sp_trace <> 0);
      check Alcotest.bool "every retx has a parent span" true
        (r.Tracer.sp_parent <> 0);
      match Hashtbl.find_opt by_id r.Tracer.sp_parent with
      | None -> Alcotest.fail "retx parent evicted from the ring"
      | Some p ->
          check Alcotest.string "parent is the original flight span" "flight"
            p.Tracer.sp_name;
          check Alcotest.int "retx shares the original's trace id"
            p.Tracer.sp_trace r.Tracer.sp_trace)
    retx

let test_rd_retx_lineage () =
  let tracer = Tracer.create ~capacity:65536 () in
  let ok = transport_run ~loss:0.2 ~seed:7 ~bytes:30_000 tracer in
  check Alcotest.bool "transfer exact" true ok;
  assert_retx_lineage ~sublayer:"rd" tracer

let test_gbn_retx_lineage () =
  let engine = Sim.Engine.create ~seed:7 () in
  let tracer = Tracer.create ~capacity:65536 () in
  let link =
    Datalink.Stack.link engine ~tracer (Sim.Channel.lossy 0.2)
      Datalink.Stack.default_spec
  in
  let payloads = List.init 40 (Printf.sprintf "payload %d") in
  let received = Datalink.Stack.transfer engine link payloads in
  check Alcotest.int "transfer completed" 40 (List.length received);
  assert_retx_lineage ~sublayer:"arq" tracer

(* Receiver-side correlation: a payload delivered at B carries the trace
   of the flight span opened at A — the deliver instant is a child of the
   sending flight, not an orphan. *)
let test_arq_deliver_correlation () =
  List.iter
    (fun arq ->
      let module A = (val arq : Datalink.Arq.S) in
      let engine = Sim.Engine.create ~seed:11 () in
      let tracer = Tracer.create ~capacity:65536 () in
      let link =
        Datalink.Stack.link engine ~tracer (Sim.Channel.lossy 0.15)
          { Datalink.Stack.default_spec with arq }
      in
      let payloads = List.init 25 (Printf.sprintf "payload %d") in
      let received = Datalink.Stack.transfer engine link payloads in
      check Alcotest.int (A.name ^ " completed") 25 (List.length received);
      let spans = Tracer.spans tracer in
      let flights_at_a =
        List.filter_map
          (fun s ->
            if s.Tracer.sp_track = "A" && s.Tracer.sp_name = "flight" then
              Some s.Tracer.sp_trace
            else None)
          spans
      in
      let delivers_at_b =
        List.filter
          (fun s -> s.Tracer.sp_track = "B" && s.Tracer.sp_name = "deliver")
          spans
      in
      check Alcotest.int (A.name ^ " all deliveries traced") 25
        (List.length delivers_at_b);
      List.iter
        (fun s ->
          if s.Tracer.sp_trace = 0 || s.Tracer.sp_parent = 0 then
            Alcotest.failf "%s: orphan deliver span %d" A.name s.Tracer.sp_id;
          if not (List.mem s.Tracer.sp_trace flights_at_a) then
            Alcotest.failf "%s: deliver trace %d matches no sending flight"
              A.name s.Tracer.sp_trace)
        delivers_at_b)
    [ (module Datalink.Arq_stop_and_wait : Datalink.Arq.S);
      (module Datalink.Arq_go_back_n);
      (module Datalink.Arq_selective_repeat) ]

(* --- Chrome exporter --- *)

(* A deliberately tiny JSON reader — just enough to round-trip the
   exporter's output and fail loudly on malformed text. *)
type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else raise (Bad_json "eof") in
  let advance () = incr pos in
  let rec skip_ws () =
    if
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    then begin
      advance ();
      skip_ws ()
    end
  in
  let expect c =
    skip_ws ();
    if peek () <> c then
      raise (Bad_json (Printf.sprintf "expected '%c' at %d" c !pos));
    advance ()
  in
  let literal lit v =
    if !pos + String.length lit <= n && String.sub s !pos (String.length lit) = lit
    then begin
      pos := !pos + String.length lit;
      v
    end
    else raise (Bad_json "bad literal")
  in
  let string_lit () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      let c = peek () in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' ->
          let e = peek () in
          advance ();
          (match e with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
              if !pos + 4 > n then raise (Bad_json "truncated \\u escape");
              let code = int_of_string ("0x" ^ String.sub s !pos 4) in
              pos := !pos + 4;
              (* the exporter only escapes single bytes *)
              if code < 0x100 then Buffer.add_char buf (Char.chr code)
              else raise (Bad_json "unexpected wide \\u escape")
          | _ -> raise (Bad_json "bad escape"));
          go ()
      | c ->
          Buffer.add_char buf c;
          go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    let is_num = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num s.[!pos] do
      advance ()
    done;
    if !pos = start then raise (Bad_json "expected a value");
    Num (float_of_string (String.sub s start (!pos - start)))
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then begin
          advance ();
          Obj []
        end
        else
          let rec members acc =
            skip_ws ();
            let k = string_lit () in
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | ',' ->
                advance ();
                members ((k, v) :: acc)
            | '}' ->
                advance ();
                Obj (List.rev ((k, v) :: acc))
            | _ -> raise (Bad_json "bad object")
          in
          members []
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin
          advance ();
          Arr []
        end
        else
          let rec elems acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | ',' ->
                advance ();
                elems (v :: acc)
            | ']' ->
                advance ();
                Arr (List.rev (v :: acc))
            | _ -> raise (Bad_json "bad array")
          in
          elems []
    | '"' -> Str (string_lit ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> number ()
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then raise (Bad_json "trailing garbage");
  v

let test_chrome_export () =
  let tracer = Tracer.create ~capacity:65536 () in
  let ok = transport_run ~loss:0.1 ~seed:11 ~bytes:20_000 tracer in
  check Alcotest.bool "transfer exact" true ok;
  let events =
    match parse_json (Tracer.to_chrome_json tracer) with
    | Obj [ ("traceEvents", Arr evs) ] -> evs
    | _ -> Alcotest.fail "top level is not {\"traceEvents\": [...]}"
    | exception Bad_json msg -> Alcotest.failf "exporter JSON invalid: %s" msg
  in
  check Alcotest.bool "exporter emitted events" true (events <> []);
  let field name = function Obj kvs -> List.assoc_opt name kvs | _ -> None in
  let last_ts = Hashtbl.create 16 in
  List.iter
    (fun ev ->
      match field "ph" ev with
      | Some (Str "M") -> ()
      | Some (Str "X") ->
          let num k =
            match field k ev with
            | Some (Num f) -> f
            | _ -> Alcotest.failf "X event missing numeric %S" k
          in
          let pid = num "pid" and tid = num "tid" and ts = num "ts" in
          check Alcotest.bool "ts is an integer microsecond count" true
            (Float.is_integer ts && Float.is_integer (num "dur"));
          let prev =
            Option.value ~default:neg_infinity
              (Hashtbl.find_opt last_ts (pid, tid))
          in
          if ts < prev then
            Alcotest.failf "ts went backwards on track (%.0f,%.0f): %.0f < %.0f"
              pid tid ts prev;
          Hashtbl.replace last_ts (pid, tid) ts
      | _ -> Alcotest.fail "event with unexpected phase")
    events

(* Clock-alignment markers: with [?clock_sync] every track (process)
   carries a ["clock_sync"] metadata record naming one shared sync
   domain, and the merged multi-tracer export namespaces each shard's
   tracks while putting all of them in that domain — so Perfetto aligns
   shard timelines instead of treating them as independent clocks. *)
let test_clock_sync_markers () =
  let mk label =
    let tr = Tracer.create () in
    Tracer.instant tr ~at:0.5 ~track:(label ^ "-host") ~sublayer:"s" "ev";
    tr
  in
  let t0 = mk "a" and t1 = mk "b" in
  let parse js =
    match parse_json js with
    | Obj [ ("traceEvents", Arr evs) ] -> evs
    | _ -> Alcotest.fail "top level is not {\"traceEvents\": [...]}"
    | exception Bad_json msg -> Alcotest.failf "exporter JSON invalid: %s" msg
  in
  let field name = function Obj kvs -> List.assoc_opt name kvs | _ -> None in
  let sync_records evs =
    List.filter_map
      (fun ev ->
        match (field "name" ev, field "ph" ev, field "args" ev) with
        | Some (Str "clock_sync"), Some (Str "c"), Some (Obj args) -> (
            match List.assoc_opt "sync_id" args with
            | Some (Str id) -> Some (field "pid" ev, id)
            | _ -> None)
        | _ -> None)
      evs
  in
  (* Unmerged export never emits markers... *)
  check Alcotest.int "no marker without clock_sync" 0
    (List.length (sync_records (parse (Tracer.to_chrome_json t0))));
  (* ...opting in emits one per track, in the named domain. *)
  (match sync_records (parse (Tracer.to_chrome_json ~clock_sync:"vclock" t0)) with
  | [ (_, id) ] -> check Alcotest.string "sync domain" "vclock" id
  | l -> Alcotest.failf "expected 1 clock_sync record, got %d" (List.length l));
  let evs = parse (Tracer.merged_chrome_json [ ("shard0", t0); ("shard1", t1) ]) in
  let syncs = sync_records evs in
  check Alcotest.int "one marker per merged track" 2 (List.length syncs);
  List.iter
    (fun (_, id) -> check Alcotest.string "shared sync domain" "sim-vclock" id)
    syncs;
  let tracks =
    List.filter_map
      (fun ev ->
        match (field "ph" ev, field "name" ev, field "args" ev) with
        | Some (Str "M"), Some (Str "process_name"), Some (Obj [ ("name", Str n) ])
          ->
            Some n
        | _ -> None)
      evs
  in
  check
    Alcotest.(slist string compare)
    "tracks namespaced by shard"
    [ "shard0/a-host"; "shard1/b-host" ]
    tracks

(* --- the sum-of-sojourns identity --- *)

let test_sojourn_identity () =
  let open Transport in
  let tracer = Tracer.create ~capacity:65536 () in
  let engine = Sim.Engine.create ~seed:3 () in
  let a, b = Host.pair engine ~tracer { Sim.Channel.ideal with delay = 0.03 } in
  Host.listen b ~port:80;
  let c = Host.connect a ~remote_port:80 () in
  (* One sub-MSS write per 100 ms: each write becomes exactly one
     segment, so its trace consists of one buffer, one flight and one
     reasm span that abut in virtual time. *)
  for i = 0 to 9 do
    ignore
      (Sim.Engine.at engine
         ~time:(1.0 +. (0.1 *. Float.of_int i))
         (fun () -> Host.write c (String.make 500 (Char.chr (Char.code 'a' + i)))))
  done;
  ignore (Sim.Engine.at engine ~time:2.5 (fun () -> Host.close c));
  Sim.Engine.run ~until:30. engine;
  let interesting s =
    match (s.Tracer.sp_sublayer, s.Tracer.sp_name) with
    | "osr", "buffer" | "rd", "flight" | "osr", "reasm" -> true
    | _ -> false
  in
  let by_trace = Hashtbl.create 32 in
  List.iter
    (fun s ->
      if interesting s && s.Tracer.sp_trace <> 0 then
        Hashtbl.replace by_trace s.Tracer.sp_trace
          (s :: Option.value ~default:[] (Hashtbl.find_opt by_trace s.Tracer.sp_trace)))
    (Tracer.spans tracer);
  let checked = ref 0 in
  Hashtbl.iter
    (fun trace ss ->
      let has name = List.exists (fun s -> s.Tracer.sp_name = name) ss in
      if List.length ss = 3 && has "buffer" && has "flight" && has "reasm" then begin
        incr checked;
        let sum = List.fold_left (fun acc s -> acc +. Tracer.duration s) 0. ss in
        let t0 =
          List.fold_left (fun acc s -> Float.min acc s.Tracer.sp_start) infinity ss
        in
        let t1 =
          List.fold_left (fun acc s -> Float.max acc s.Tracer.sp_end) neg_infinity
            ss
        in
        (* Intra-event processing is zero virtual time, so the sublayer
           sojourns tile the end-to-end interval exactly; the slack only
           absorbs float noise. *)
        if Float.abs (sum -. (t1 -. t0)) > 1e-6 then
          Alcotest.failf
            "trace %d: sojourns sum to %.9f but end-to-end latency is %.9f"
            trace sum (t1 -. t0);
        (* The text biography of the same trace names every sojourn. *)
        let bio = Tracer.biography tracer ~trace in
        let contains needle =
          let nl = String.length needle and hl = String.length bio in
          let rec at i =
            i + nl <= hl && (String.sub bio i nl = needle || at (i + 1))
          in
          at 0
        in
        List.iter
          (fun name ->
            check Alcotest.bool (name ^ " appears in the biography") true
              (contains name))
          [ "buffer"; "flight"; "reasm" ]
      end)
    by_trace;
  check Alcotest.bool "at least 8 traced messages checked" true (!checked >= 8)

(* --- trace_of ring fallback --- *)

(* [trace_of] must answer for finished spans too (newest-first ring
   scan): the trace of a span that closed is recoverable until the ring
   evicts it, and only then does the lookup give up. *)
let test_trace_of_finished_span () =
  let tracer = Tracer.create ~capacity:4 () in
  let tr = Tracer.fresh_trace tracer in
  let id = Tracer.start tracer ~at:0. ~track:"A" ~sublayer:"rd" ~trace:tr "flight" in
  check Alcotest.(option int) "live span found" (Some tr)
    (Tracer.trace_of tracer id);
  ignore (Tracer.finish tracer ~at:1. id);
  check Alcotest.(option int) "finished span still found" (Some tr)
    (Tracer.trace_of tracer id);
  (* Fill the ring until the span is evicted; then — and only then — the
     lineage is genuinely gone. *)
  for i = 0 to 3 do
    Tracer.instant tracer ~at:(2. +. float_of_int i) ~track:"A" ~sublayer:"x"
      "filler"
  done;
  check Alcotest.(option int) "evicted span unknown" None
    (Tracer.trace_of tracer id)

(* --- disabled path --- *)

(* Every span operation on a ctx without a tracer is a test and a
   return: these calls sit on every data path, so they must not even
   build the closure or key they would use. *)
let test_disabled_span_allocates_nothing () =
  let ctx = Sublayer.Span.disabled "rd" in
  let ops ctx =
    Sublayer.Span.instant ctx "frame";
    Sublayer.Span.instant ctx ~trace:3 ~parent:4 ~detail:"dropped" "corrupt";
    Sublayer.Span.open_ ctx ~key:"f:0" ~trace:1 "flight";
    Sublayer.Span.close ctx ~key:"f:0" ~detail:"acked" ();
    Sublayer.Span.close_all ctx ~detail:"reset" ();
    Sublayer.Span.child ctx ~key:"f:0" ~detail:"fast" "retx";
    Sublayer.Span.bind ctx "k" 1;
    Sublayer.Span.unbind ctx "k";
    ignore (Sys.opaque_identity (Sublayer.Span.fresh_trace ctx));
    ignore (Sys.opaque_identity (Sublayer.Span.lookup ctx "k"));
    ignore (Sys.opaque_identity (Sublayer.Span.take ctx "k"));
    ignore (Sys.opaque_identity (Sublayer.Span.id_of ctx ~key:"f:0"));
    ignore (Sys.opaque_identity (Sublayer.Span.trace_of ctx ~key:"f:0"));
    ignore (Sys.opaque_identity (Sublayer.Span.start_free ctx "free"));
    ignore (Sys.opaque_identity (Sublayer.Span.close_id ctx ~id:1 ()));
    ignore (Sys.opaque_identity (Sublayer.Span.trace_of_id ctx ~id:1));
    Sublayer.Span.bind_local ctx "off:0" 1;
    ignore (Sys.opaque_identity (Sublayer.Span.lookup_local ctx "off:0"));
    ignore (Sys.opaque_identity (Sublayer.Span.take_local ctx "off:0"))
  in
  ops ctx;
  let before = Gc.minor_words () in
  for _ = 1 to 1_000 do
    ops ctx
  done;
  let words = Gc.minor_words () -. before in
  (* the float [Gc.minor_words] returns is the only allocation *)
  check Alcotest.bool
    (Printf.sprintf "disabled ctx: %.0f words for 1 000 rounds" words)
    true (words <= 2.)

let () =
  Alcotest.run "trace"
    [
      ( "lineage",
        [
          Alcotest.test_case "rd retransmit links to original" `Quick
            test_rd_retx_lineage;
          Alcotest.test_case "arq deliveries correlate to sending flight"
            `Quick test_arq_deliver_correlation;
          Alcotest.test_case "gbn re-send links to original" `Quick
            test_gbn_retx_lineage;
          Alcotest.test_case "trace_of survives span finish" `Quick
            test_trace_of_finished_span;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "chrome json round-trips" `Quick
            test_chrome_export;
          Alcotest.test_case "clock_sync markers align merged tracks" `Quick
            test_clock_sync_markers;
        ] );
      ( "attribution",
        [
          Alcotest.test_case "sojourns sum to end-to-end latency" `Quick
            test_sojourn_identity;
        ] );
      ( "disabled",
        [
          Alcotest.test_case "disabled spans allocate nothing" `Quick
            test_disabled_span_allocates_nothing;
        ] );
    ]
