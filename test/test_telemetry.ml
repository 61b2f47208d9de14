(* Telemetry: bounded-ring sampling semantics, determinism across shard
   counts, what an absent instrument costs, allocation attribution, and
   the per-boundary copy breakdown counters. *)

module Telemetry = Sim.Telemetry

let check = Alcotest.check

(* --- ring / delta / interval basics ------------------------------------ *)

let test_counter_deltas () =
  let t = Telemetry.create ~label:"basics" () in
  let v = ref 0 in
  Telemetry.add_counters t ~name:"src" (fun () -> [ ("n", !v) ]);
  v := 10;
  (* First tick only anchors the counter baseline. *)
  Telemetry.tick t ~now:0.0;
  (match Telemetry.samples t with
  | [ s ] -> check Alcotest.(list (pair string int)) "baseline empty" [] s.Telemetry.det
  | _ -> Alcotest.fail "expected one sample");
  v := 25;
  Telemetry.tick t ~now:1.0;
  (match Telemetry.last_sample t with
  | Some s ->
      check Alcotest.(list (pair string int)) "delta since baseline"
        [ ("src.n", 15) ] s.Telemetry.det
  | None -> Alcotest.fail "no sample");
  (* Unchanged counters produce no reading at all. *)
  Telemetry.tick t ~now:2.0;
  (match Telemetry.last_sample t with
  | Some s -> check Alcotest.(list (pair string int)) "no delta" [] s.Telemetry.det
  | None -> Alcotest.fail "no sample")

let test_gauges_and_routing () =
  let t = Telemetry.create () in
  Telemetry.add_gauges t ~name:"g" (fun () -> [ ("live", 7) ]);
  (* [gc] keys and [det:false] sources both land in the nondet half. *)
  Telemetry.add_counters t ~name:"sub" (fun () -> [ ("gc.minor_words", 100) ]);
  Telemetry.add_counters t ~det:false ~name:"tracer" (fun () -> [ ("dropped", 3) ]);
  Telemetry.tick t ~now:0.0;
  Telemetry.tick t ~now:1.0;
  match Telemetry.last_sample t with
  | Some s ->
      check Alcotest.(list (pair string int)) "gauge is deterministic"
        [ ("g.live", 7) ] s.Telemetry.det;
      check Alcotest.(list (pair string int)) "gc + det:false are not"
        [] s.Telemetry.nondet
      |> ignore;
      (* both sources were unchanged between ticks, so nondet is empty;
         bump them via a fresh instance instead *)
      ()
  | None -> Alcotest.fail "no sample"

let test_nondet_routing_values () =
  let t = Telemetry.create () in
  let words = ref 0 and drops = ref 0 in
  Telemetry.add_counters t ~name:"osr" (fun () -> [ ("gc.minor_words", !words) ]);
  Telemetry.add_counters t ~det:false ~name:"tracer" (fun () -> [ ("dropped", !drops) ]);
  Telemetry.tick t ~now:0.0;
  words := 64;
  drops := 2;
  Telemetry.tick t ~now:1.0;
  match Telemetry.last_sample t with
  | Some s ->
      check Alcotest.(list (pair string int)) "det half empty" [] s.Telemetry.det;
      check
        Alcotest.(list (pair string int))
        "nondet carries gc and det:false keys"
        [ ("osr.gc.minor_words", 64); ("tracer.dropped", 2) ]
        s.Telemetry.nondet
  | None -> Alcotest.fail "no sample"

let test_interval_and_ring () =
  let t = Telemetry.create ~capacity:4 ~interval:1.0 () in
  Telemetry.add_gauges t ~name:"g" (fun () -> [ ("x", 1) ]);
  (* Interval suppresses sub-interval ticks. *)
  Telemetry.tick t ~now:0.0;
  Telemetry.tick t ~now:0.5;
  Telemetry.tick t ~now:0.9;
  check Alcotest.int "interval suppressed" 1 (Telemetry.length t);
  Telemetry.tick t ~now:1.0;
  check Alcotest.int "interval elapsed" 2 (Telemetry.length t);
  (* Overflow evicts oldest, keeps count. *)
  List.iter (fun now -> Telemetry.tick t ~now) [ 2.0; 3.0; 4.0; 5.0 ];
  check Alcotest.int "ring is bounded" 4 (Telemetry.length t);
  check Alcotest.int "recorded keeps counting" 6 (Telemetry.recorded t);
  check Alcotest.int "evictions counted" 2 (Telemetry.dropped t);
  (match Telemetry.samples t with
  | s :: _ -> check (Alcotest.float 1e-9) "oldest retained is t=2" 2.0 s.Telemetry.ts
  | [] -> Alcotest.fail "empty ring");
  Telemetry.clear t;
  check Alcotest.int "clear empties" 0 (Telemetry.length t);
  check Alcotest.int "clear resets drops" 0 (Telemetry.dropped t)

let test_merged () =
  let make vs =
    let t = Telemetry.create () in
    let v = ref 0 in
    Telemetry.add_counters t ~name:"s" (fun () -> [ ("n", !v) ]);
    Telemetry.tick t ~now:0.0;
    List.iteri
      (fun i x ->
        v := !v + x;
        Telemetry.tick t ~now:(float_of_int (i + 1)))
      vs;
    t
  in
  let a = make [ 3; 5 ] and b = make [ 10; 0 ] in
  let merged = Telemetry.merged_deterministic [ a; b ] in
  check
    Alcotest.(list (pair (float 1e-9) (list (pair string int))))
    "pointwise sum, keys unioned"
    [ (0.0, []); (1.0, [ ("s.n", 13) ]); (2.0, [ ("s.n", 5) ]) ]
    merged;
  let c = make [ 1 ] in
  (match Telemetry.merged_deterministic [ a; c ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "sample count mismatch must raise");
  let d = Telemetry.create () in
  Telemetry.tick d ~now:0.0;
  Telemetry.tick d ~now:1.5;
  Telemetry.tick d ~now:2.0;
  match Telemetry.merged_deterministic [ a; d ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "timestamp mismatch must raise"

let test_exports () =
  let t = Telemetry.create ~label:"exp" () in
  let v = ref 0 in
  Telemetry.add_counters t ~name:"s" (fun () -> [ ("n", !v) ]);
  Telemetry.tick t ~now:0.0;
  v := 4;
  Telemetry.tick t ~now:1.0;
  let json = Telemetry.to_json t in
  check Alcotest.bool "json carries the reading" true
    (String.length json > 0
    &&
    let needle = "\"s.n\":4" in
    let n = String.length json and m = String.length needle in
    let rec scan i = i + m <= n && (String.sub json i m = needle || scan (i + 1)) in
    scan 0);
  let csv = Telemetry.to_csv t in
  check Alcotest.bool "csv long format" true
    (String.length csv > 0 && String.sub csv 0 13 = "ts,key,value\n");
  let events = Telemetry.chrome_counter_events t in
  check Alcotest.bool "chrome events non-empty" true (List.length events >= 2);
  (* Splice into the tracer exporter: the result must still be one JSON
     object and contain the counter record. *)
  let tr = Sim.Tracer.create () in
  let merged = Sim.Tracer.to_chrome_json ~extra:events tr in
  check Alcotest.bool "counter track spliced" true
    (let needle = "\"ph\":\"C\"" in
     let n = String.length merged and m = String.length needle in
     let rec scan i = i + m <= n && (String.sub merged i m = needle || scan (i + 1)) in
     scan 0)

(* --- fabric determinism across shard counts ---------------------------- *)

(* Same construction as test_scale's identity check, with telemetry
   attached: per-shard instances tick at the soak's slice boundaries, and
   the pointwise-summed deterministic series must be bit-identical at
   every shard count ([shards = 1] runs the single engine directly). *)
let sharded_series ?link_faults ~shards ~seed () =
  let flows = 48 in
  let shard = Sim.Shard.create ~seed ~lookahead:0.001 ~shards () in
  let stats =
    Array.init shards (fun i ->
        Sublayer.Stats.create ~label:(Printf.sprintf "shard%d" i) ())
  in
  let telemetry =
    Array.init shards (fun i ->
        Telemetry.create ~label:(Printf.sprintf "shard%d" i) ())
  in
  let fabric =
    Transport.Fabric.create_sharded shard ~hosts:8
      ~ins:
        (Array.map2
           (fun stats telemetry -> Sublayer.Instrument.v ~stats ~telemetry ())
           stats telemetry)
      ?link_faults ~channel:(Sim.Channel.lossy 0.02) ~flows ~bytes:384 ()
  in
  let r =
    Sim.Workload.run_sharded ~spacing:0.01 ~name:"telemetry-identity" ~shard
      ~launch_site:(Transport.Fabric.launch_site fabric)
      ~telemetry:(Array.to_list telemetry) ~flows
      (Transport.Fabric.ops fabric)
  in
  if not (Sim.Workload.ok r) then
    Alcotest.failf "workload not ok: %a" Sim.Workload.pp_report r;
  (r, Telemetry.merged_deterministic (Array.to_list telemetry))

let check_series_identity ?link_faults ~seed () =
  let base_r, base = sharded_series ?link_faults ~shards:1 ~seed () in
  check Alcotest.bool "baseline produced samples" true (List.length base > 0);
  (* The series must actually carry readings, not just timestamps. *)
  check Alcotest.bool "baseline carries counters" true
    (List.exists (fun (_, kvs) -> kvs <> []) base);
  List.iter
    (fun shards ->
      let r, series = sharded_series ?link_faults ~shards ~seed () in
      check Alcotest.int "event counts equal"
        base_r.Sim.Workload.soak.Sim.Soak.events_fired
        r.Sim.Workload.soak.Sim.Soak.events_fired;
      if series <> base then begin
        if List.length base <> List.length series then
          Printf.printf "sample counts differ: base %d | sharded %d\n"
            (List.length base) (List.length series)
        else
          List.iteri
            (fun i ((tb, vb), (ts, vs)) ->
              if (tb, vb) <> (ts, vs) then
                Printf.printf "sample %d: base t=%g %s | sharded t=%g %s\n" i tb
                  (String.concat ","
                     (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) vb))
                  ts
                  (String.concat ","
                     (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) vs)))
            (List.combine base series);
        Alcotest.failf "%d-shard deterministic series diverged" shards
      end)
    [ 2; 4 ]

let test_series_identity () = check_series_identity ~seed:31 ()

let test_series_identity_faults () =
  let partition =
    [ Sim.Faultplan.Partition { at = 0.3 }; Sim.Faultplan.Heal { at = 1.7 } ]
  in
  let link_faults (src, dst) =
    if (src = 3 && dst = 4) || (src = 4 && dst = 3) then Some partition
    else None
  in
  check_series_identity ~link_faults ~seed:32 ()

(* --- telemetry-on vs telemetry-off ------------------------------------- *)

(* Sampling only reads, so attaching telemetry (and allocation
   attribution) must not perturb the event schedule. *)
let test_on_off_identity () =
  let fingerprint ?telemetry () =
    Fingerprint.run ~seed:41 ~loss:0.02 ~flows:40 ~bytes:512
      ~stats:(Sublayer.Stats.create ~label:"fp" ())
      ?telemetry ()
  in
  let t = Telemetry.create () in
  let on = fingerprint ~telemetry:t () in
  Fingerprint.check_same (fingerprint ()) on;
  (* Telemetry with stats attributes allocation, with no switch to turn
     on: the run must have charged some sublayer's cell. *)
  let attributed =
    List.exists
      (fun s ->
        List.exists
          (fun (k, v) -> v > 0 && Filename.check_suffix k "gc.minor_words")
          s.Telemetry.nondet)
      (Telemetry.samples t)
  in
  check Alcotest.bool "per-sublayer minor words attributed" true attributed

(* --- absent instruments --------------------------------------------------- *)

(* An endpoint with no monitor and no allocation cells gets the shared
   inert probes of [Transport.Conform] and [Datalink.Conform]: a crossing
   calls a no-op, with nothing to check and no cell to charge. *)
let test_inert_probes_free () =
  let module T = Transport.Conform in
  let module D = Datalink.Conform in
  let osr_rd = T.osr_rd None ~conn:"x"
  and rd_cm = T.rd_cm None ~conn:"x"
  and pdu = T.cm_dm None ~conn:"x"
  and arq_det = D.arq_det None ~conn:"x" ~variant:"arq-gbn" ~window:8
  and det_frm = D.det_frm None ~conn:"x"
  and frm_line = D.frm_line None ~conn:"x" in
  let buf = Bitkit.Wirebuf.of_string "pdu"
  and sl = Bitkit.Slice.of_string "pdu"
  and bits = Bitkit.Bitseq.of_string "pdu" in
  let observe () =
    osr_rd.T.P_osr_rd.obs_req `Connect;
    osr_rd.T.P_osr_rd.obs_ind `Established;
    rd_cm.T.P_rd_cm.obs_req `Close;
    rd_cm.T.P_rd_cm.obs_ind `Peer_fin;
    pdu.T.P_pdu.obs_req buf;
    pdu.T.P_pdu.obs_ind sl;
    arq_det.D.P_arq_det.obs_req buf;
    arq_det.D.P_arq_det.obs_ind sl;
    det_frm.D.P_det_frm.obs_req sl;
    det_frm.D.P_det_frm.obs_ind sl;
    frm_line.D.P_frm_line.obs_req bits;
    frm_line.D.P_frm_line.obs_ind bits
  in
  observe ();
  let before = Gc.minor_words () in
  for _ = 1 to 50_000 do
    observe ()
  done;
  let words = Gc.minor_words () -. before in
  (* the float [Gc.minor_words] returns is the only allocation *)
  check Alcotest.bool
    (Printf.sprintf "%.0f words for 50 000 rounds of 12 crossings" words)
    true (words <= 2.)

(* A stats-only endpoint has no cells, so its runtime brackets nothing
   and its probes never cross: run inside an outer bracket, the words
   the whole exchange allocates stay with the outer cell. An attributed
   endpoint, run the same way, takes most of them into its own cells. *)
let test_stats_only_no_alloc () =
  let outer_share ?telemetry () =
    let outer = Sublayer.Alloc.cell (Sublayer.Stats.unregistered "outer") in
    let engine = Sim.Engine.create ~seed:64 () in
    let stats_a = Sublayer.Stats.create ~label:"A" ()
    and stats_b = Sublayer.Stats.create ~label:"B" () in
    let exchange () () =
      let a, b =
        Transport.Host.pair engine ~stats_a ~stats_b ?telemetry Sim.Channel.ideal
      in
      Transport.Host.listen b ~port:80;
      let c = Transport.Host.connect a ~remote_port:80 () in
      Transport.Host.write c (String.make 20_000 'x');
      Transport.Host.close c;
      Sim.Engine.run ~until:5. engine
    in
    let w0 = Gc.minor_words () in
    Sublayer.Alloc.bracket (Some outer) exchange () ();
    let total = Gc.minor_words () -. w0 in
    let cells =
      List.exists
        (fun (k, _) -> Filename.check_suffix k "gc.minor_words")
        (Sublayer.Stats.snapshot stats_a @ Sublayer.Stats.snapshot stats_b)
    in
    (float_of_int (Sublayer.Alloc.cell_value outer) /. total, cells)
  in
  let share, cells = outer_share () in
  check Alcotest.bool "stats only: no cell built" false cells;
  check Alcotest.bool
    (Printf.sprintf "stats only: the outer cell took %.4f of the words" share)
    true (share >= 0.99);
  let share, cells = outer_share ~telemetry:(Telemetry.create ()) () in
  check Alcotest.bool "attributed: cells built" true cells;
  check Alcotest.bool
    (Printf.sprintf "attributed: the outer cell took %.4f of the words" share)
    true (share < 0.5)

let test_no_telemetry_no_samples () =
  (* A run without telemetry leaves nothing sampled anywhere: the
     instance never ticked stays empty. *)
  let t = Telemetry.create () in
  Telemetry.add_gc t;
  check Alcotest.int "zero samples" 0 (Telemetry.length t);
  check Alcotest.int "zero recorded" 0 (Telemetry.recorded t);
  check (Alcotest.option Alcotest.reject) "no last sample"
    None
    (Option.map (fun _ -> ()) (Telemetry.last_sample t))

(* --- per-boundary copy breakdown ---------------------------------------- *)

let test_copy_breakdown_transport () =
  let engine = Sim.Engine.create ~seed:51 () in
  let stats_a = Sublayer.Stats.create ~label:"A" () in
  let stats_b = Sublayer.Stats.create ~label:"B" () in
  let factory = Transport.Tcp_secure.factory ~key:Transport.Tcp_secure.demo_key in
  let a, b =
    Transport.Host.pair engine ~factory_a:factory ~factory_b:factory ~stats_a
      ~stats_b Sim.Channel.ideal
  in
  Transport.Host.listen b ~port:80;
  Bitkit.Slice.reset_copied ();
  let c = Transport.Host.connect a ~remote_port:80 () in
  Transport.Host.write c (String.make 20_000 'x');
  Transport.Host.close c;
  Sim.Engine.run ~until:30. engine;
  check Alcotest.bool "finished" true (Transport.Host.finished c);
  let counter reg sub name =
    Sublayer.Stats.value
      (Sublayer.Stats.counter (Sublayer.Stats.scope reg sub) name)
  in
  let total = Bitkit.Slice.copied_bytes () in
  let app =
    counter stats_a "osr" "copied_app_bytes"
    + counter stats_b "osr" "copied_app_bytes"
  in
  let seal =
    counter stats_a "rec" "copied_seal_bytes"
    + counter stats_b "rec" "copied_seal_bytes"
  in
  (* In-order segments are delivered as borrowed views of the wire
     bytes, so on an ideal channel the app boundary copies nothing:
     [copied_app_bytes] counts only out-of-order staging. *)
  check Alcotest.int "in-order app delivery copies nothing" 0 app;
  check Alcotest.bool "rec-seal copies attributed" true (seal > 0);
  check Alcotest.bool
    (Printf.sprintf "breakdown bounded by total (%d + %d <= %d)" app seal total)
    true
    (app + seal <= total);
  Bitkit.Slice.reset_copied ()

let test_copy_breakdown_datalink () =
  let engine = Sim.Engine.create ~seed:52 () in
  let stats_a = Sublayer.Stats.create ~label:"A" () in
  let link =
    Datalink.Stack.link engine ~stats_a Sim.Channel.ideal
      Datalink.Stack.default_spec
  in
  Bitkit.Slice.reset_copied ();
  let got = Datalink.Stack.transfer engine link [ "hello"; "telemetry" ] in
  check Alcotest.(list string) "delivered" [ "hello"; "telemetry" ] got;
  let trailer =
    Sublayer.Stats.value
      (Sublayer.Stats.counter
         (Sublayer.Stats.scope stats_a "detector")
         "copied_trailer_bytes")
  in
  let total = Bitkit.Slice.copied_bytes () in
  check Alcotest.bool "detector trailer copies attributed" true (trailer > 0);
  check Alcotest.bool "bounded by total" true (trailer <= total);
  Bitkit.Slice.reset_copied ()

(* --- soak surfaces ring drops ------------------------------------------- *)

let test_soak_drops () =
  let engine = Sim.Engine.create ~seed:53 () in
  ignore (Sim.Engine.at engine ~time:5.0 (fun () -> ()));
  let tele = Telemetry.create ~label:"soak" () in
  Telemetry.add_gauges tele ~name:"g" (fun () -> [ ("one", 1) ]);
  let boundaries = ref [] in
  let r =
    Sim.Soak.run ~step:0.5 ~until:3.0 ~name:"drops"
      ~driver:(Sim.Soak.engine_driver engine) ~telemetry:[ tele ]
      ~on_slice:(fun now -> boundaries := now :: !boundaries)
      ~drops:(fun () -> [ ("custom", 7) ])
      ~finished:(fun () -> false)
      ()
  in
  check Alcotest.bool "telemetry ticked at slice boundaries" true
    (Telemetry.length tele > 0);
  check Alcotest.int "on_slice fired per slice" (Telemetry.recorded tele)
    (List.length !boundaries);
  check Alcotest.(option int) "telemetry ring drops surfaced" (Some 0)
    (List.assoc_opt "telemetry:soak" r.Sim.Soak.drops);
  check Alcotest.(option int) "custom drops appended" (Some 7)
    (List.assoc_opt "custom" r.Sim.Soak.drops)

(* --- timer owners ---------------------------------------------------------- *)

(* [Sublayer.Compose.Run] maps a fired timer to its owner's allocation
   cell from the stack's declaration. Fire one timer at a time, with
   nothing else happening in that event, and check that the owner's
   [gc.minor_words] counter takes words while the sublayers the fire
   never reaches, and the other host, take none: a map that sends a
   timer to another sublayer's cell charges that cell and leaves the
   owner at zero. *)

module Host = Transport.Host

(* Per host, each scope's [gc.minor_words]. *)
let cells regs scopes =
  List.map
    (fun reg ->
      List.map
        (fun sub ->
          ( sub,
            Sublayer.Stats.value
              (Sublayer.Stats.counter (Sublayer.Stats.scope reg sub) "gc.minor_words") ))
        scopes)
    regs

(* Fire the next event alone; what each cell of each host took. *)
let fire_one engine regs scopes =
  let before = cells regs scopes in
  check Alcotest.bool "an event fired" true (Sim.Engine.step engine);
  List.map2
    (List.map2 (fun (sub, w0) (_, w1) -> (sub, w1 - w0)))
    before (cells regs scopes)

let owner_took ~what ~owner ~untouched ~idle_host taken =
  let words sub = List.assoc sub taken in
  check Alcotest.bool (Printf.sprintf "%s: %s took words" what owner) true (words owner > 0);
  List.iter
    (fun sub -> check Alcotest.int (Printf.sprintf "%s: %s took none" what sub) 0 (words sub))
    untouched;
  List.iter
    (fun (sub, w) ->
      check Alcotest.int (Printf.sprintf "%s: other host's %s took none" what sub) 0 w)
    idle_host

(* A client connected to a server that closes when the client does.
   Watson's stack opens with its first data segment, so the server
   connection exists only once one has arrived. *)
let timer_pair ?(autoread = true) factory =
  let engine = Sim.Engine.create ~seed:61 () in
  let stats_a = Sublayer.Stats.create ~label:"A" ()
  and stats_b = Sublayer.Stats.create ~label:"B" () in
  let config =
    { Transport.Config.default with
      Transport.Config.delayed_ack = true; ack_delay = 0.01; rto_init = 1.0; rto_min = 0.5 }
  in
  let a, b =
    Host.pair engine ~config ~factory_a:factory ~factory_b:factory ~stats_a ~stats_b
      ~telemetry:(Telemetry.create ()) Sim.Channel.ideal
  in
  let server = ref None in
  Host.listen b ~port:80;
  Host.on_accept b (fun c ->
      server := Some c;
      Host.set_autoread c autoread;
      Host.on_event c (function `Peer_closed -> Host.close c | _ -> ()));
  let c = Host.connect a ~remote_port:80 () in
  (engine, stats_a, [ stats_a; stats_b ], c, server)

let received server = match !server with Some s -> Host.received_length s | None -> 0

(* Step until the server holds [n] bytes. A fault that stops delivery
   fails here, when no event is left or five virtual seconds pass,
   instead of spinning. *)
let step_until_received engine server n =
  let deadline = Sim.Engine.now engine +. 5. in
  while received server < n do
    if not (Sim.Engine.step engine) then
      Alcotest.failf "no event left with %d of %d bytes received" (received server) n;
    if Sim.Engine.now engine > deadline then
      Alcotest.failf "%d of %d bytes received after 5 s" (received server) n
  done

let test_timer_owners ~factory ~cm ~below_cm () =
  let scopes = [ "osr"; "rd"; cm ] @ below_cm @ [ "app"; "wire" ] in
  (* RD's delayed ack: the server's only timer due before the client's
     RTO; the ack it sends goes down, never up to OSR. *)
  let engine, _, regs, c, server = timer_pair factory in
  Host.write c "ten bytes!";
  step_until_received engine server 10;
  check (Alcotest.option (Alcotest.float 0.)) "ack delay due next"
    (Some (Sim.Engine.now engine +. 0.01))
    (Sim.Engine.next_time engine);
  (match fire_one engine regs scopes with
  | [ client; srv ] ->
      owner_took ~what:"ack delay" ~owner:"rd" ~untouched:[ "osr" ] ~idle_host:client srv
  | _ -> assert false);
  (* CM's close timer (TIME_WAIT, or Watson's quiet period): the event
     closes one connection, and the [`Closed] goes up, never down. *)
  let srv = Option.get !server in
  Host.close c;
  Sim.Engine.run ~until:(Sim.Engine.now engine +. 1.) engine;
  let was_closed = (Host.closed c, Host.closed srv) in
  check Alcotest.bool "one still open" false (fst was_closed && snd was_closed);
  (match fire_one engine regs scopes with
  | [ client; srv_cells ] ->
      let owner, other =
        match (was_closed, (Host.closed c, Host.closed srv)) with
        | (false, s), (true, s') when s = s' -> (client, srv_cells)
        | (c0, false), (c1, true) when c0 = c1 -> (srv_cells, client)
        | _ -> Alcotest.fail "the event did not close exactly one connection"
      in
      owner_took ~what:"close timer" ~owner:cm ~untouched:below_cm ~idle_host:other owner
  | _ -> assert false);
  (* OSR's persist probe: the server reads nothing, so the client's
     window closes and only the persist timer makes its OSR send. *)
  let engine, stats_a, regs, c, server = timer_pair ~autoread:false factory in
  Host.write c (String.make 80_000 'p');
  Sim.Engine.run ~until:5. engine;
  check Alcotest.bool "window closed" true (received server < 80_000);
  let sent () =
    Sublayer.Stats.value
      (Sublayer.Stats.counter (Sublayer.Stats.scope stats_a "osr") "segments_out")
  in
  let rec persist budget =
    if budget = 0 then Alcotest.fail "no persist probe within 100 events";
    let before = sent () in
    let taken = fire_one engine regs scopes in
    if sent () > before then taken else persist (budget - 1)
  in
  match persist 100 with
  | [ client; srv ] ->
      owner_took ~what:"persist" ~owner:"osr" ~untouched:[] ~idle_host:srv client
  | _ -> assert false

(* --- seam cell pairs -------------------------------------------------------- *)

(* A crossing charges the sublayer it enters: a request heading down the
   one below the seam, an indication heading up the one above. Fire one
   timer alone and require every sublayer it reaches, on both sides of
   each seam it crosses, to take words: a seam whose cell pair names its
   sides the wrong way round charges the sublayer a request leaves and
   leaves the bottom one at zero, and a timer charged to the wrong owner
   leaves the owner at zero. *)
let test_seam_cells ~factory ~cm ~below_cm () =
  let scopes = [ "osr"; "rd"; cm ] @ below_cm @ [ "app"; "wire" ] in
  (* RD's delayed ack goes down through every sublayer below RD and
     never up to OSR. *)
  let engine, _, regs, c, server = timer_pair factory in
  Host.write c "ten bytes!";
  step_until_received engine server 10;
  match fire_one engine regs scopes with
  | [ client; srv ] ->
      List.iter
        (fun owner ->
          owner_took ~what:"ack delay" ~owner ~untouched:[ "osr"; "app" ] ~idle_host:client srv)
        ("rd" :: cm :: below_cm)
  | _ -> assert false

(* The datalink stack's ARQ retransmits into a channel that loses every
   frame: the retransmission goes down through the three sublayers below
   the ARQ, and the ARQ is charged for the fire. *)
let test_seam_cells_datalink () =
  let engine = Sim.Engine.create ~seed:62 () in
  let stats_a = Sublayer.Stats.create ~label:"A" ()
  and stats_b = Sublayer.Stats.create ~label:"B" () in
  let link =
    Datalink.Stack.link engine ~stats_a ~stats_b ~telemetry:(Telemetry.create ())
      (Sim.Channel.lossy 1.0) Datalink.Stack.default_spec
  in
  Datalink.Stack.send link.Datalink.Stack.a "lost";
  let scopes = [ "arq"; "detector"; "framer"; "linecode"; "app"; "wire" ] in
  match fire_one engine [ stats_a; stats_b ] scopes with
  | [ a; b ] ->
      List.iter
        (fun owner ->
          owner_took ~what:"retransmission" ~owner ~untouched:[ "app" ] ~idle_host:b a)
        [ "arq"; "detector"; "framer"; "linecode" ];
      check Alcotest.int "retransmitted" 1
        (Datalink.Stack.arq_stats link.Datalink.Stack.a).Datalink.Arq.retransmissions
  | _ -> assert false

(* [Tcp_messages] is declared like the other stacks, so under telemetry
   each of its sublayers, and the excursions above and below it, get a
   cell that a one-message exchange charges. *)
let test_seam_cells_messages () =
  let module M = Transport.Tcp_messages in
  let engine = Sim.Engine.create ~seed:63 () in
  let telemetry = Telemetry.create () in
  let stats_a = Sublayer.Stats.create ~label:"A" ()
  and stats_b = Sublayer.Stats.create ~label:"B" () in
  let to_a = ref (fun (_ : Bitkit.Slice.t) -> ()) and to_b = ref (fun _ -> ()) in
  let ch dir =
    Sim.Channel.create engine Sim.Channel.ideal ~size:Bitkit.Slice.length
      ~deliver:(fun s -> !dir s) ()
  in
  let got = ref [] in
  let mk reg ~local_port ~remote_port ch events =
    M.create engine ~ins:(Sublayer.Instrument.v ~stats:reg ~telemetry ()) ~name:"m"
      Transport.Config.default ~local_port ~remote_port ~transmit:(Sim.Channel.send ch) ~events
  in
  let a = mk stats_a ~local_port:1 ~remote_port:2 (ch to_b) ignore in
  let b =
    mk stats_b ~local_port:2 ~remote_port:1 (ch to_a) (function
      | `Msg m -> got := m :: !got
      | _ -> ())
  in
  to_a := M.from_wire a;
  to_b := M.from_wire b;
  M.listen b;
  M.connect a;
  M.send a "one message";
  Sim.Engine.run ~until:5. engine;
  check Alcotest.(list string) "delivered" [ "one message" ] !got;
  List.iter
    (fun sub ->
      let words =
        List.fold_left (fun acc host -> acc + List.assoc sub host) 0
          (cells [ stats_a; stats_b ] [ sub ])
      in
      check Alcotest.bool (sub ^ " charged") true (words > 0))
    [ "msg"; "rd"; "cm"; "dm"; "app"; "wire" ]

(* A router is one Compose declaration too: under stats and telemetry a
   routed exchange charges its forwarding ([router]), route-computation
   and [hello] cells, and the wire excursion below them; with stats
   alone no cell exists. *)
let test_seam_cells_network () =
  let run telemetry =
    let engine = Sim.Engine.create ~seed:64 () in
    let stats = Sublayer.Stats.create () in
    let net =
      Network.Topology.build engine
        ~ins:(Sublayer.Instrument.v ~stats ?telemetry ())
        ~routing:(Network.Distance_vector.factory) ~n:6 (Network.Topology.ring 6)
    in
    check Alcotest.bool "converged" true (Network.Topology.converge net <> None);
    Network.Topology.send net ~src:0 ~dst:3 "routed";
    Sim.Engine.run ~until:(Sim.Engine.now engine +. 10.) engine;
    Network.Topology.stop net;
    check Alcotest.int "delivered" 1 (List.length (Network.Topology.received net 3));
    Sublayer.Stats.snapshot stats
  in
  let on = run (Some (Telemetry.create ())) in
  List.iter
    (fun sub ->
      match List.assoc_opt (sub ^ ".gc.minor_words") on with
      | Some w -> check Alcotest.bool (sub ^ " charged") true (w > 0)
      | None -> Alcotest.failf "no %s cell" sub)
    [ "router"; "distance-vector"; "hello"; "wire" ];
  let cell (key, _) = String.ends_with ~suffix:".gc.minor_words" key in
  check Alcotest.(list string) "no cell without telemetry" []
    (List.map fst (List.filter cell (run None)))

let () =
  Alcotest.run "telemetry"
    [
      ( "ring",
        [
          Alcotest.test_case "counter deltas" `Quick test_counter_deltas;
          Alcotest.test_case "gauges" `Quick test_gauges_and_routing;
          Alcotest.test_case "nondet routing" `Quick test_nondet_routing_values;
          Alcotest.test_case "interval and ring" `Quick test_interval_and_ring;
          Alcotest.test_case "merged" `Quick test_merged;
          Alcotest.test_case "exports" `Quick test_exports;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "shard identity" `Quick test_series_identity;
          Alcotest.test_case "shard identity under faults" `Quick
            test_series_identity_faults;
          Alcotest.test_case "on/off identity" `Quick test_on_off_identity;
        ] );
      ( "disabled",
        [
          Alcotest.test_case "probe path free" `Quick test_inert_probes_free;
          Alcotest.test_case "no samples" `Quick test_no_telemetry_no_samples;
          Alcotest.test_case "stats-only endpoint makes no Alloc call" `Quick
            test_stats_only_no_alloc;
        ] );
      ( "timer owners",
        [
          Alcotest.test_case "sublayered" `Quick
            (test_timer_owners ~factory:Host.sublayered ~cm:"cm" ~below_cm:[ "dm" ]);
          Alcotest.test_case "watson" `Quick
            (test_timer_owners ~factory:(Transport.Tcp_watson.factory) ~cm:"cm-timer"
               ~below_cm:[ "dm" ]);
          Alcotest.test_case "secure" `Quick
            (test_timer_owners
               ~factory:(Transport.Tcp_secure.factory ~key:Transport.Tcp_secure.demo_key)
               ~cm:"cm" ~below_cm:[ "rec"; "dm" ]);
        ] );
      ( "seam cells",
        [
          Alcotest.test_case "sublayered" `Quick
            (test_seam_cells ~factory:Host.sublayered ~cm:"cm" ~below_cm:[ "dm" ]);
          Alcotest.test_case "watson" `Quick
            (test_seam_cells ~factory:(Transport.Tcp_watson.factory) ~cm:"cm-timer"
               ~below_cm:[ "dm" ]);
          Alcotest.test_case "secure" `Quick
            (test_seam_cells
               ~factory:(Transport.Tcp_secure.factory ~key:Transport.Tcp_secure.demo_key)
               ~cm:"cm" ~below_cm:[ "rec"; "dm" ]);
          Alcotest.test_case "datalink" `Quick test_seam_cells_datalink;
          Alcotest.test_case "messages" `Quick test_seam_cells_messages;
          Alcotest.test_case "network" `Quick test_seam_cells_network;
        ] );
      ( "boundaries",
        [
          Alcotest.test_case "transport copies" `Quick test_copy_breakdown_transport;
          Alcotest.test_case "datalink copies" `Quick test_copy_breakdown_datalink;
          Alcotest.test_case "soak drops" `Quick test_soak_drops;
        ] );
    ]
