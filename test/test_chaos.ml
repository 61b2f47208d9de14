(* Chaos tests: scripted fault injection (Sim.Faultplan) driven through
   the soak harness (Sim.Soak) against all three stacks — the datalink
   ARQ trio, a routed network, and the sublayered TCPs. Safety means
   exact delivery (no loss, no duplication, no reordering of the stream);
   liveness means progress resumes after Heal and the engine quiesces
   (zero pending events) once the stacks are done. Every scenario is a
   pure function of its seed, so failures replay exactly. *)

open Transport

let check = Alcotest.check

let random_data seed n =
  let rng = Bitkit.Rng.create seed in
  String.init n (fun _ -> Char.chr (Bitkit.Rng.int rng 256))

(* A Gilbert–Elliott parameter set with the given stationary loss. *)
let ge ~loss ~burst_len =
  match (Sim.Channel.burst_lossy ~loss ~burst_len).Sim.Channel.burst with
  | Some g -> g
  | None -> assert false

(* --- Soak flight recorder --- *)

(* Each distinct violation must get its own flight dump, up to the cap —
   the recorder used to freeze only the first one, and the run used to
   stop there, hiding every later failure. *)
let test_soak_per_violation_flights () =
  let engine = Sim.Engine.create ~seed:1 () in
  let tracer = Sim.Tracer.create () in
  (* Distinctly-named tracked activity so each dump has spans to freeze. *)
  for i = 0 to 9 do
    ignore
      (Sim.Engine.at engine
         ~time:(float_of_int i +. 0.25)
         (fun () ->
           Sim.Tracer.instant tracer ~at:(Sim.Engine.now engine)
             ~track:(Printf.sprintf "conn%d" i) ~sublayer:"rd" "tick"))
  done;
  let violation_no = ref 0 in
  let invariant () =
    incr violation_no;
    if !violation_no <= 5 then
      Some (Printf.sprintf "conn%d misbehaved" (!violation_no - 1))
    else None
  in
  let r =
    Sim.Soak.run ~step:1.0 ~until:10. ~invariant ~tracer ~flight_cap:3
      ~name:"flights" ~driver:(Sim.Soak.engine_driver engine)
      ~finished:(fun () -> false)
      ()
  in
  check Alcotest.int "all distinct violations recorded" 5
    (List.length r.Sim.Soak.violations);
  check Alcotest.int "dumps capped" 3 (List.length r.Sim.Soak.flights);
  check Alcotest.int "cap surfaced in the report" 3 r.Sim.Soak.flight_cap;
  List.iteri
    (fun i (msg, spans) ->
      check Alcotest.string "dump keyed by its violation"
        (Printf.sprintf "conn%d misbehaved" i)
        msg;
      check Alcotest.bool "dump has spans" true (spans <> []))
    r.Sim.Soak.flights

(* --- Faultplan semantics --- *)

let test_faultplan_restores_baseline () =
  let engine = Sim.Engine.create ~seed:1 () in
  let ch =
    Sim.Channel.create engine (Sim.Channel.lossy 0.05) ~deliver:(fun () -> ()) ()
  in
  Sim.Faultplan.apply engine
    [ Sim.Faultplan.Flap { at = 1.0; duration = 1.0 };
      Sim.Faultplan.Brownout { at = 3.0; duration = 1.0; bandwidth = 500. } ]
    [ Sim.Faultplan.target ch ];
  Sim.Engine.run ~until:1.5 engine;
  check (Alcotest.float 1e-9) "flap is total loss" 1.0 (Sim.Channel.config ch).Sim.Channel.loss;
  Sim.Engine.run ~until:2.5 engine;
  check (Alcotest.float 1e-9) "baseline loss restored" 0.05
    (Sim.Channel.config ch).Sim.Channel.loss;
  Sim.Engine.run ~until:3.5 engine;
  check Alcotest.bool "brownout squeezes bandwidth" true
    ((Sim.Channel.config ch).Sim.Channel.bandwidth = Some 500.);
  Sim.Engine.run ~until:4.5 engine;
  check Alcotest.bool "bandwidth restored" true
    ((Sim.Channel.config ch).Sim.Channel.bandwidth = None)

let test_faultplan_random_shape () =
  let rng = Bitkit.Rng.create 3 in
  let horizon = 30. in
  let plan = Sim.Faultplan.random rng ~horizon () in
  check Alcotest.bool "events within horizon" true
    (List.for_all
       (fun e -> Sim.Faultplan.time_of e >= 0. && Sim.Faultplan.time_of e <= horizon)
       plan);
  (match List.rev plan with
  | Sim.Faultplan.Heal { at } :: _ ->
      check (Alcotest.float 1e-9) "final heal at horizon" horizon at
  | _ -> Alcotest.fail "plan must end with a heal");
  (* The plan is printable data (store it next to a failing seed). *)
  check Alcotest.bool "printable" true
    (String.length (Format.asprintf "%a" Sim.Faultplan.pp plan) > 0)

(* --- Datalink: the ARQ trio under link faults --- *)

let arqs : (string * (module Datalink.Arq.S)) list =
  [ ("stop-and-wait", (module Datalink.Arq_stop_and_wait));
    ("go-back-n", (module Datalink.Arq_go_back_n));
    ("selective-repeat", (module Datalink.Arq_selective_repeat)) ]

let datalink_soak arq seed =
  let engine = Sim.Engine.create ~seed () in
  let spec =
    { Datalink.Stack.default_spec with
      arq;
      arq_config = { Datalink.Arq.window = 8; rto = 0.15; max_retries = 60 } }
  in
  let monitors = Monitor.Runtime.create ~label:"datalink" () in
  let link = Datalink.Stack.link engine ~monitors (Sim.Channel.lossy 0.02) spec in
  let payloads = List.init 120 (Printf.sprintf "payload-%03d") in
  List.iter (Datalink.Stack.send link.Datalink.Stack.a) payloads;
  Sim.Faultplan.apply engine
    [ Sim.Faultplan.Flap { at = 0.4; duration = 0.8 };
      Sim.Faultplan.Burst_loss
        { at = 2.0; duration = 1.5; params = ge ~loss:0.15 ~burst_len:4. };
      Sim.Faultplan.Flap { at = 4.5; duration = 0.6 };
      Sim.Faultplan.Heal { at = 6.0 } ]
    [ Sim.Faultplan.target ~name:"a->b" link.Datalink.Stack.a_to_b;
      Sim.Faultplan.target ~name:"b->a" link.Datalink.Stack.b_to_a ];
  let received () = List.of_seq (Queue.to_seq link.Datalink.Stack.received_at_b) in
  let rec is_prefix xs ys =
    match (xs, ys) with
    | [], _ -> true
    | x :: xs', y :: ys' when x = y -> is_prefix xs' ys'
    | _ -> false
  in
  let invariant () =
    match Monitor.Runtime.next_violation monitors with
    | Some _ as v -> v
    | None ->
        if is_prefix (received ()) payloads then None
        else Some "delivery is not an exact in-order prefix of the sent payloads"
  in
  let finished () =
    Datalink.Stack.is_idle link.Datalink.Stack.a
    && Queue.length link.Datalink.Stack.received_at_b = List.length payloads
  in
  let report =
    Sim.Soak.run ~name:"datalink" ~driver:(Sim.Soak.engine_driver engine) ~until:60. ~invariant
      ~finished
      ~verdicts:(fun () -> Monitor.Runtime.verdicts monitors)
      ()
  in
  (report, received (), payloads)

let test_datalink_trio_under_faults () =
  List.iter
    (fun (aname, arq) ->
      let report, got, sent = datalink_soak arq 41 in
      if not (Sim.Soak.ok report) then
        Alcotest.failf "%s: %s" aname (Format.asprintf "%a" Sim.Soak.pp_report report);
      check Alcotest.bool (aname ^ ": monitors checked traffic") true
        (List.exists (fun (_, c, _) -> c > 0) report.Sim.Soak.verdicts);
      check Alcotest.bool (aname ^ ": exact delivery") true (got = sent))
    arqs

let test_datalink_give_up_on_dead_link () =
  List.iter
    (fun (aname, arq) ->
      let engine = Sim.Engine.create ~seed:7 () in
      let spec =
        { Datalink.Stack.default_spec with
          arq;
          arq_config = { Datalink.Arq.window = 4; rto = 0.1; max_retries = 5 } }
      in
      let link = Datalink.Stack.link engine Sim.Channel.ideal spec in
      Sim.Faultplan.apply engine
        [ Sim.Faultplan.Partition { at = 0.005 } ]
        [ Sim.Faultplan.target link.Datalink.Stack.a_to_b;
          Sim.Faultplan.target link.Datalink.Stack.b_to_a ];
      List.iter (Datalink.Stack.send link.Datalink.Stack.a)
        (List.init 20 (Printf.sprintf "p%02d"));
      Sim.Engine.run ~until:20. engine;
      check Alcotest.bool (aname ^ ": gave up") true
        (Datalink.Stack.gave_up link.Datalink.Stack.a);
      check Alcotest.bool (aname ^ ": backlog dropped") true
        (Datalink.Stack.is_idle link.Datalink.Stack.a);
      check Alcotest.int (aname ^ ": engine quiesced") 0 (Sim.Engine.pending engine))
    arqs

let test_datalink_soak_reproducible () =
  let gbn = List.assoc "go-back-n" arqs in
  check Alcotest.bool "same seed, same report" true
    (Sim.Soak.reproducible (fun seed -> let r, _, _ = datalink_soak gbn seed in r) ~seed:99)

(* --- Network: routing reconverges around a flapping link --- *)

let test_network_reconverges_across_flap () =
  List.iter
    (fun (pname, routing) ->
      let engine = Sim.Engine.create ~seed:11 () in
      let monitors = Monitor.Runtime.create ~label:pname () in
      let net =
        Network.Topology.build engine ~ins:(Sublayer.Instrument.v ~monitors ()) ~routing ~n:8
          (Network.Topology.ring 8)
      in
      (match Network.Topology.converge net with
      | Some _ -> ()
      | None -> Alcotest.failf "%s: initial convergence failed" pname);
      let t0 = Sim.Engine.now engine in
      Network.Topology.flap_link net 0 1 ~at:(t0 +. 0.5) ~duration:30.;
      Sim.Engine.run ~until:(t0 +. 1.0) engine;
      check Alcotest.bool (pname ^ ": link down") false
        (List.mem (0, 1) (Network.Topology.alive_edges net));
      (match Network.Topology.converge net with
      | Some _ -> ()
      | None -> Alcotest.failf "%s: no reconvergence around the dead link" pname);
      (* The ring is cut: traffic must route the long way round. *)
      (match Network.Topology.fib_path net ~src:0 ~dst:1 with
      | Some path -> check Alcotest.int (pname ^ ": detour length") 8 (List.length path)
      | None -> Alcotest.failf "%s: 0->1 unreachable during flap" pname);
      (* After the scheduled heal the direct route comes back. *)
      Sim.Engine.run ~until:(t0 +. 31.) engine;
      (match Network.Topology.converge net with
      | Some _ -> ()
      | None -> Alcotest.failf "%s: no reconvergence after heal" pname);
      (match Network.Topology.fib_path net ~src:0 ~dst:1 with
      | Some path -> check Alcotest.int (pname ^ ": direct route back") 2 (List.length path)
      | None -> Alcotest.failf "%s: 0->1 unreachable after heal" pname);
      (* Route traffic so the forwarding side of the router<->FIB
         monitor sees lookups, then require a clean verdict. *)
      Network.Topology.send net ~src:0 ~dst:4 "conformance probe";
      Sim.Engine.run ~until:(Sim.Engine.now engine +. 2.) engine;
      check Alcotest.bool (pname ^ ": fib monitors checked writes") true
        (Monitor.Runtime.checked monitors > 0);
      check Alcotest.int (pname ^ ": no fib violations") 0
        (Monitor.Runtime.violation_count monitors);
      Network.Topology.stop net)
    [ ("dv", Network.Distance_vector.factory);
      ("ls", Network.Link_state.factory) ]

(* --- Transport: blackhole abort (E18's ETIMEDOUT criterion) --- *)

let blackhole_scenario ~heal seed =
  let engine = Sim.Engine.create ~seed () in
  let config = { Config.default with give_up_after = 5.0; max_retries = 8 } in
  let monitors = Monitor.Runtime.create ~label:"blackhole" () in
  let a, b, ab, ba =
    Host.pair_channels engine ~config ~monitors Sim.Channel.ideal
  in
  Host.listen b ~port:80;
  let server = ref None in
  Host.on_accept b (fun c -> server := Some c);
  let c = Host.connect a ~remote_port:80 () in
  let first = random_data seed 5_000 and second = random_data (seed + 1) 5_000 in
  Host.write c first;
  let plan =
    Sim.Faultplan.Partition { at = 0.3 }
    :: (if heal then [ Sim.Faultplan.Heal { at = 2.0 } ] else [])
  in
  Sim.Faultplan.apply engine plan
    [ Sim.Faultplan.target ~name:"a->b" ab; Sim.Faultplan.target ~name:"b->a" ba ];
  (* The second write lands in the blackhole at t=0.5: the give-up clock
     starts there, so the abort must come by 0.5 + give_up_after. *)
  ignore
    (Sim.Engine.at engine ~time:0.5 (fun () ->
         Host.write c second;
         if heal then Host.close c));
  let abort_time = ref infinity in
  Host.on_event c (function
    | `Aborted -> abort_time := Sim.Engine.now engine
    | _ -> ());
  let finished () = if heal then Host.finished c else Host.aborted c in
  let report =
    Sim.Soak.run ~name:"blackhole" ~driver:(Sim.Soak.engine_driver engine) ~until:60.
      ~invariant:(Monitor.Runtime.invariant monitors)
      ~verdicts:(fun () -> Monitor.Runtime.verdicts monitors)
      ~finished ()
  in
  let got = match !server with Some s -> Host.received s | None -> "" in
  (report, !abort_time, got, Host.aborted c, first ^ second)

let test_blackhole_aborts_within_deadline () =
  let report, abort_time, got, aborted, data = blackhole_scenario ~heal:false 21 in
  check Alcotest.bool "aborted" true aborted;
  if abort_time > 0.5 +. 5.0 +. 1e-6 then
    Alcotest.failf "abort at t=%.2f, deadline was t=5.50" abort_time;
  check Alcotest.bool "pre-partition bytes arrived intact" true
    (got = String.sub data 0 (String.length got) && String.length got >= 5_000);
  check Alcotest.int "engine quiesced after abort" 0 report.Sim.Soak.pending

let test_blackhole_heal_delivers_exactly () =
  let report, _, got, aborted, data = blackhole_scenario ~heal:true 22 in
  check Alcotest.bool "no abort when the link heals in time" false aborted;
  check Alcotest.bool "exact delivery after heal" true (got = data);
  if not (Sim.Soak.ok report) then
    Alcotest.failf "%s" (Format.asprintf "%a" Sim.Soak.pp_report report)

let test_blackhole_reproducible () =
  check Alcotest.bool "same seed, same report" true
    (Sim.Soak.reproducible
       (fun seed -> let r, _, _, _, _ = blackhole_scenario ~heal:true seed in r)
       ~seed:5)

(* --- Transport: full-stack soaks under random fault schedules --- *)

let stack_soak ~fname ~factory seed =
  let engine = Sim.Engine.create ~seed () in
  let monitors = Monitor.Runtime.create ~label:fname () in
  let a, b, ab, ba =
    Host.pair_channels engine ~factory_a:factory ~factory_b:factory ~guard:true
      ~monitors (Sim.Channel.lossy 0.01)
  in
  Host.listen b ~port:80;
  let server = ref None in
  Host.on_accept b (fun c ->
      server := Some c;
      (* Close back when the peer finishes, so both sides tear down. *)
      Host.on_event c (function `Peer_closed -> Host.close c | _ -> ()));
  let c = Host.connect a ~remote_port:80 () in
  let data = random_data seed 30_000 in
  Host.write c data;
  Host.close c;
  let rng = Bitkit.Rng.create ((seed * 7) + 1) in
  let plan = Sim.Faultplan.random rng ~horizon:25. ~events:5 () in
  Sim.Faultplan.apply engine plan
    [ Sim.Faultplan.target ~name:"a->b" ab; Sim.Faultplan.target ~name:"b->a" ba ];
  let invariant () =
    match Monitor.Runtime.next_violation monitors with
    | Some _ as v -> v
    | None -> (
        match !server with
        | None -> None
        | Some s ->
            let got = Host.received s in
            if String.length got <= String.length data
               && got = String.sub data 0 (String.length got)
            then None
            else Some (fname ^ ": delivered bytes diverge from the sent stream"))
  in
  let finished () =
    match !server with
    | Some s -> Host.received_length s = String.length data && Host.finished c
    | None -> false
  in
  let report =
    Sim.Soak.run ~name:fname ~driver:(Sim.Soak.engine_driver engine) ~until:120. ~invariant
      ~finished
      ~verdicts:(fun () -> Monitor.Runtime.verdicts monitors)
      ()
  in
  (report, (match !server with Some s -> Host.received s | None -> ""), data)

let stacks () =
  [ ("sublayered", Host.sublayered);
    ("watson", Tcp_watson.factory);
    ("secure", Tcp_secure.factory ~key:Tcp_secure.demo_key) ]

let test_stack_soaks () =
  List.iter
    (fun (fname, factory) ->
      let report, got, data = stack_soak ~fname ~factory 61 in
      if not (Sim.Soak.ok report) then
        Alcotest.failf "%s: %s" fname (Format.asprintf "%a" Sim.Soak.pp_report report);
      check Alcotest.bool (fname ^ ": monitors checked traffic") true
        (List.exists (fun (_, c, _) -> c > 0) report.Sim.Soak.verdicts);
      check Alcotest.bool (fname ^ ": exact delivery under chaos") true (got = data))
    (stacks ())

let test_stack_soak_reproducible () =
  check Alcotest.bool "same seed, same report" true
    (Sim.Soak.reproducible
       (fun seed -> let r, _, _ = stack_soak ~fname:"sublayered" ~factory:Host.sublayered seed in r)
       ~seed:1234)

(* --- Cm_timer under partition: evaporate, reconnect, reject stale --- *)

let test_cm_timer_partition () =
  let engine = Sim.Engine.create ~seed:77 () in
  let w = Tcp_watson.factory in
  let a, b, ab, ba =
    Host.pair_channels engine ~factory_a:w ~factory_b:w Sim.Channel.ideal
  in
  Host.listen b ~port:80;
  let server = ref None in
  Host.on_accept b (fun c -> server := Some c);
  let c1 = Host.connect a ~local_port:5000 ~remote_port:80 () in
  Host.write c1 "before the storm";
  (* Partition at 0.5; heal only at 8.0 — both idle timers (6 s) fire
     during the outage, so the connection state evaporates on both ends
     (Watson's delta-t design: silence is closure). *)
  Sim.Faultplan.apply engine
    [ Sim.Faultplan.Partition { at = 0.5 }; Sim.Faultplan.Heal { at = 8.0 } ]
    [ Sim.Faultplan.target ~name:"a->b" ab; Sim.Faultplan.target ~name:"b->a" ba ];
  Sim.Engine.run ~until:8.0 engine;
  let srv1 = match !server with Some s -> s | None -> Alcotest.fail "no accept" in
  check Alcotest.string "delivered before the partition" "before the storm"
    (Host.received srv1);
  check Alcotest.bool "server state evaporated" true (Host.closed srv1);
  check Alcotest.bool "client state evaporated" true (Host.closed c1);
  (* Post-heal: a fresh incarnation (new port, fresh ISN) is accepted. *)
  server := None;
  let c2 = Host.connect a ~remote_port:80 () in
  Host.write c2 "fresh incarnation";
  Sim.Engine.run ~until:9.0 engine;
  (match !server with
  | Some srv2 ->
      check Alcotest.string "fresh incarnation accepted" "fresh incarnation"
        (Host.received srv2)
  | None -> Alcotest.fail "no accept after heal");
  (* A delayed duplicate from the dead incarnation, with ISNs the server
     no longer recognises, must be dropped (delta-t trust). The server
     retired that incarnation, so the duplicate reaches the listener: it
     echoes an ISN, so it is no first contact, and the connection spawned
     for it accepts nothing, sends nothing and does not stay. *)
  let stale =
    String.concat ""
      [ Segment.write_dm { Segment.src_port = 5000; dst_port = 80 };
        Segment.write_cm
          { Segment.flags = Segment.no_cm_flags; isn_local = 999; isn_remote = 111 };
        Segment.write_rd
          { Segment.seq = 1000; ack = 0; len = 5; has_data = true; has_ack = false;
            sacks = [] };
        Segment.write_osr Segment.default_osr; "ghost" ]
  in
  let before = Host.received_length srv1 in
  let live = Host.connections b and sent = Sublayer.Link.transmitted (Host.wire_link b) in
  server := None;
  Host.from_wire b (Bitkit.Slice.of_string stale);
  check Alcotest.int "stale incarnation rejected" before (Host.received_length srv1);
  check Alcotest.bool "stale incarnation not accepted" true (Option.is_none !server);
  check Alcotest.int "stale incarnation answered with nothing" sent
    (Sublayer.Link.transmitted (Host.wire_link b));
  let after = Host.connections b in
  check Alcotest.bool "stale incarnation leaves the table as it was" true
    (List.length after = List.length live
    && List.for_all (fun c -> List.exists (( == ) c) live) after)

let () =
  Alcotest.run "chaos"
    [
      ( "soak",
        [
          Alcotest.test_case "per-violation flight dumps" `Quick
            test_soak_per_violation_flights;
        ] );
      ( "faultplan",
        [
          Alcotest.test_case "apply restores baseline" `Quick
            test_faultplan_restores_baseline;
          Alcotest.test_case "random plan shape" `Quick test_faultplan_random_shape;
        ] );
      ( "datalink",
        [
          Alcotest.test_case "ARQ trio exact under faults" `Slow
            test_datalink_trio_under_faults;
          Alcotest.test_case "give up on a dead link" `Quick
            test_datalink_give_up_on_dead_link;
          Alcotest.test_case "soak reproducible" `Slow test_datalink_soak_reproducible;
        ] );
      ( "network",
        [
          Alcotest.test_case "reconverge across a flap" `Slow
            test_network_reconverges_across_flap;
        ] );
      ( "transport",
        [
          Alcotest.test_case "blackhole aborts within deadline" `Quick
            test_blackhole_aborts_within_deadline;
          Alcotest.test_case "heal before deadline delivers" `Quick
            test_blackhole_heal_delivers_exactly;
          Alcotest.test_case "blackhole reproducible" `Quick test_blackhole_reproducible;
          Alcotest.test_case "stack soaks under random schedules" `Slow test_stack_soaks;
          Alcotest.test_case "soak reproducible" `Slow test_stack_soak_reproducible;
          Alcotest.test_case "cm-timer partition lifecycle" `Quick
            test_cm_timer_partition;
        ] );
    ]
