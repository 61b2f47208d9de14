(* Many-flow scale harness: Sim.Workload driving Transport.Fabric. Small
   flow counts here (CI-sized); E21 measured the same harness at 1k/5k. *)

let run_workload ?(flows = 40) ?(bytes = 512) ?(loss = 0.) ~backend ~seed () =
  let engine = Sim.Engine.create ~seed ~backend () in
  let channel =
    if loss = 0. then Sim.Channel.ideal else Sim.Channel.lossy loss
  in
  let fabric =
    Transport.Fabric.create engine ~hosts:4 ~channel ~flows ~bytes ()
  in
  Sim.Workload.run ~spacing:0.01 ~name:"scale" ~engine ~flows
    (Transport.Fabric.ops fabric)

let test_exact_delivery () =
  List.iter
    (fun backend ->
      let r = run_workload ~backend ~seed:11 () in
      if not (Sim.Workload.ok r) then
        Alcotest.failf "workload not ok: %a" Sim.Workload.pp_report r;
      Alcotest.(check int) "all flows exact" r.Sim.Workload.flows
        r.Sim.Workload.exact;
      Alcotest.(check bool) "live hwm positive" true
        (r.Sim.Workload.live_hwm > 0))
    [ `Wheel; `Heap ]

let test_exact_under_loss () =
  let r = run_workload ~loss:0.02 ~backend:`Wheel ~seed:12 () in
  if not (Sim.Workload.ok r) then
    Alcotest.failf "lossy workload not ok: %a" Sim.Workload.pp_report r

(* Same seed, same harness, twice: the whole many-flow run must be
   bit-reproducible, wheel included. *)
let test_reproducible () =
  let scenario seed =
    (run_workload ~loss:0.02 ~backend:`Wheel ~seed ()).Sim.Workload.soak
  in
  Alcotest.(check bool) "reproducible" true
    (Sim.Soak.reproducible scenario ~seed:13)

(* Both backends must tell the same story at the soak level too: equal
   virtual end time and events fired for the identical scenario. *)
let test_backend_agreement () =
  let report backend = run_workload ~loss:0.02 ~backend ~seed:14 () in
  let w = report `Wheel and h = report `Heap in
  Alcotest.(check int) "events fired equal"
    h.Sim.Workload.soak.Sim.Soak.events_fired
    w.Sim.Workload.soak.Sim.Soak.events_fired;
  Alcotest.(check bool) "end clocks equal" true
    (w.Sim.Workload.soak.Sim.Soak.vtime = h.Sim.Workload.soak.Sim.Soak.vtime)

(* Partial partition at 1k flows: the links out of host 0 go dark for two
   virtual seconds while the rest of the fabric keeps running. Every flow
   must still deliver exactly — the partitioned ones by retransmitting
   after the heal, the others without ever noticing. *)
let test_partial_partition () =
  let engine = Sim.Engine.create ~seed:15 () in
  let partition = [ Sim.Faultplan.Partition { at = 0.5 }; Sim.Faultplan.Heal { at = 2.5 } ] in
  let link_faults (src, dst) =
    if src = 0 || dst = 0 then Some partition else None
  in
  let fabric =
    Transport.Fabric.create engine ~hosts:8 ~link_faults
      ~channel:(Sim.Channel.lossy 0.01) ~flows:1000 ~bytes:256 ()
  in
  let r =
    Sim.Workload.run ~spacing:0.002 ~name:"partial-partition" ~engine
      ~flows:1000
      (Transport.Fabric.ops fabric)
  in
  if not (Sim.Workload.ok r) then
    Alcotest.failf "partitioned workload not ok: %a" Sim.Workload.pp_report r;
  Alcotest.(check int) "all 1k flows exact" r.Sim.Workload.flows
    r.Sim.Workload.exact;
  (* The partitioned flows cannot finish before the heal: a run that ends
     earlier means the faults were never applied. *)
  Alcotest.(check bool) "run outlives the partition" true
    (r.Sim.Workload.soak.Sim.Soak.vtime > 2.5)

(* --- sharded execution ------------------------------------------------- *)

(* One scenario, parameterised only by the shard count: 8 hosts, 64
   flows, loss, per-shard monitor registries. [shards = 1] runs the
   single engine directly with no domains; the whole Workload report
   (per-flow exactness, events fired, end time, every per-slice sample,
   merged monitor verdicts) must be structurally identical at every
   shard count — the same discipline test_wheel applies to heap vs
   wheel, extended to parallel execution. *)
let sharded_report ?link_faults ?(loss = 0.02) ~shards ~seed () =
  let flows = 64 in
  let shard = Sim.Shard.create ~seed ~lookahead:0.001 ~shards () in
  let mons =
    Array.init shards (fun i ->
        Monitor.Runtime.create ~label:(Printf.sprintf "shard%d" i) ())
  in
  let fabric =
    Transport.Fabric.create_sharded shard ~hosts:8 ~monitors:mons ?link_faults
      ~channel:(Sim.Channel.lossy loss) ~flows ~bytes:384 ()
  in
  Sim.Workload.run_sharded ~spacing:0.01 ~name:"shard-identity" ~shard
    ~launch_site:(Transport.Fabric.launch_site fabric)
    ~verdicts:(fun () -> Monitor.Runtime.merged_verdicts (Array.to_list mons))
    ~flows
    (Transport.Fabric.ops fabric)

let check_identity ?link_faults ~seed () =
  let base = sharded_report ?link_faults ~shards:1 ~seed () in
  if not (Sim.Workload.ok base) then
    Alcotest.failf "single-shard baseline not ok: %a" Sim.Workload.pp_report
      base;
  List.iter
    (fun shards ->
      let r = sharded_report ?link_faults ~shards ~seed () in
      if r <> base then
        Alcotest.failf "%d-shard run diverged from single-engine: %a vs %a"
          shards Sim.Workload.pp_report r Sim.Workload.pp_report base)
    [ 2; 4 ]

let test_shard_identity () = check_identity ~seed:21 ()

(* Same identity with a fault plan partitioning the 3<->4 host pair —
   cross-shard links at both 2 shards (blocks 0-3 | 4-7) and 4 shards
   (pairs), so faults land on conduit-fed channels. *)
let test_shard_identity_faults () =
  let partition =
    [ Sim.Faultplan.Partition { at = 0.3 }; Sim.Faultplan.Heal { at = 1.7 } ]
  in
  let link_faults (src, dst) =
    if (src = 3 && dst = 4) || (src = 4 && dst = 3) then Some partition
    else None
  in
  check_identity ~link_faults ~seed:22 ()

(* The conduit's conservative contract, in isolation: messages at or
   after the receiver's clock drain in push order; a message before it —
   a violated lookahead promise — is an error, never a silent reorder. *)
let test_conduit_lookahead () =
  let c = Sim.Conduit.create ~lookahead:0.5 in
  let seen = ref [] in
  Sim.Conduit.push c ~time:1.0 (fun () -> ());
  Sim.Conduit.push c ~time:1.2 (fun () -> ());
  Sim.Conduit.push c ~time:1.1 (fun () -> ());
  Sim.Conduit.drain c ~now:1.0 (fun ~time _fn -> seen := time :: !seen);
  Alcotest.(check (list (float 0.))) "push order preserved" [ 1.0; 1.2; 1.1 ]
    (List.rev !seen);
  Alcotest.(check int) "drained counter" 3 (Sim.Conduit.drained c);
  Alcotest.(check int) "backlog empty" 0 (Sim.Conduit.backlog c);
  Sim.Conduit.push c ~time:0.9 (fun () -> ());
  (match Sim.Conduit.drain c ~now:1.0 (fun ~time:_ _ -> ()) with
  | () -> Alcotest.fail "past delivery was not rejected"
  | exception Invalid_argument _ -> ())

(* End to end: a cross-shard post that breaks the lookahead promise must
   abort the run with the conduit's past-delivery error — proving the
   running protocol cannot deliver an event into a shard's past. *)
let test_shard_past_delivery_rejected () =
  let shard = Sim.Shard.create ~shards:2 ~lookahead:0.1 () in
  ignore
    (Sim.Engine.at (Sim.Shard.engine shard 0) ~time:1.0 (fun () ->
         (* 1.05 < 1.0 + lookahead: an illegal timestamp. *)
         Sim.Shard.post shard ~src:0 ~dst:1 ~time:1.05 (fun () -> ())));
  (match Sim.Shard.run ~until:10. shard with
  | () -> Alcotest.fail "lookahead violation was not detected"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "names the past delivery" true
        (String.length msg > 0));
  (* And the legal boundary case — exactly now + lookahead — is fine. *)
  let shard = Sim.Shard.create ~shards:2 ~lookahead:0.1 () in
  let fired = ref false in
  ignore
    (Sim.Engine.at (Sim.Shard.engine shard 0) ~time:1.0 (fun () ->
         Sim.Shard.post shard ~src:0 ~dst:1 ~time:(1.0 +. 0.1) (fun () ->
             fired := true)));
  Sim.Shard.run ~until:10. shard;
  Alcotest.(check bool) "boundary message fired" true !fired;
  Alcotest.(check int) "events accounted" 2 (Sim.Shard.events_fired shard)

(* --- the 16-bit port space -------------------------------------------- *)

(* Flow [f] serves on [1024 + 2f] and connects from [1025 + 2f]: flow
   32 255 takes ports 65 534 and 65 535, the last pair DM's 16-bit fields
   hold. Both constructors accept 32 256 flows, and the last of them
   delivers; one flow more is refused, naming the limit, instead of
   building flows whose ports the wire truncates. *)
let port_limit = 32_256

(* [build flows] returns the fabric's ops and a function that launches
   one flow and runs the fabric until it is done. *)
let check_port_limit name build () =
  List.iter
    (fun flows ->
      let ops, run_flow = build flows in
      let last = flows - 1 in
      run_flow last;
      Alcotest.(check bool)
        (Printf.sprintf "flow %d of %d delivers exactly" last flows)
        true
        (ops.Sim.Workload.flow_finished last && ops.Sim.Workload.flow_exact last))
    [ port_limit - 1; port_limit ];
  Alcotest.check_raises "one flow more is refused"
    (Invalid_argument
       (Printf.sprintf
          "%s: %d flows exceed the 16-bit port space (flow f serves on port 1024 + 2f, so \
           at most %d flows)"
          name (port_limit + 1) port_limit))
    (fun () -> ignore (build (port_limit + 1)))

let build_serial flows =
  let engine = Sim.Engine.create ~seed:51 () in
  let fabric =
    Transport.Fabric.create engine ~hosts:8 ~channel:Sim.Channel.ideal ~flows ~bytes:8 ()
  in
  let ops = Transport.Fabric.ops fabric in
  ( ops,
    fun f ->
      ops.Sim.Workload.launch f;
      Sim.Engine.run ~until:30. engine )

let build_sharded flows =
  let shard = Sim.Shard.create ~seed:52 ~lookahead:0.001 ~shards:2 () in
  let fabric =
    Transport.Fabric.create_sharded shard ~hosts:8 ~channel:Sim.Channel.ideal ~flows
      ~bytes:8 ()
  in
  let ops = Transport.Fabric.ops fabric in
  ( ops,
    fun f ->
      let site = Sim.Shard.engine shard (Transport.Fabric.launch_site fabric f) in
      ignore (Sim.Engine.at site ~time:0. (fun () -> ops.Sim.Workload.launch f));
      Sim.Shard.run ~until:30. shard )

(* --- pinned fabric schedules ------------------------------------------ *)

(* The fabric data path with every byte-level detail that could shift
   the schedule — header codecs, segmentation, the retransmit queue —
   pinned to a recorded run: a lossy bulk-shaped run (pool and stats on)
   and a churn run of many tiny flows. Events fired, the end instant and
   a digest of every counter must match the recording exactly. *)
let pinned_run ~seed ~flows ~bytes =
  let engine = Sim.Engine.create ~seed ~backend:`Wheel () in
  let stats = Sublayer.Stats.create ~label:"pinned" () in
  let pool = Bitkit.Pool.create ~slots:512 ~slot_bytes:2048 () in
  let channel = { (Sim.Channel.lossy 0.01) with Sim.Channel.delay = 0.02 } in
  let fabric =
    Transport.Fabric.create engine ~hosts:8 ~stats ~pool ~seed ~channel ~flows ~bytes ()
  in
  (* The instant of the last event fired, not the soak's slice-rounded
     clock. *)
  let last = ref 0. in
  Sim.Engine.after_event engine (fun () -> last := Sim.Engine.now engine);
  let r =
    Sim.Workload.run ~spacing:0.005 ~name:"pinned" ~engine ~flows
      (Transport.Fabric.ops fabric)
  in
  let snapshot = Sublayer.Stats.snapshot_to_json (Sublayer.Stats.snapshot stats) in
  ( Sim.Workload.ok r && r.Sim.Workload.exact = flows,
    r.Sim.Workload.soak.Sim.Soak.events_fired,
    Printf.sprintf "%h" !last,
    snapshot )

let test_pinned_fabric () =
  List.iter
    (fun ((name, seed, flows, bytes), (events, vtime, digest)) ->
      let ok, ev, t, snapshot = pinned_run ~seed ~flows ~bytes in
      Alcotest.(check bool) (name ^ " delivered exactly") true ok;
      Alcotest.(check int) (name ^ " events") events ev;
      Alcotest.(check string) (name ^ " end time") vtime t;
      Alcotest.(check string)
        (Printf.sprintf "%s stats digest of %s" name snapshot)
        digest
        (Digest.to_hex (Digest.string snapshot)))
    [ ( ("bulk 6 x 64 KiB", 41, 6, 65_536),
        (1117, "0x1.2147ae147ae15p+2", "e7bf1aec0c0864315903d7c3e1b06f79") );
      ( ("churn 100 x 256 B", 42, 100, 256),
        (1137, "0x1.9c70a3d70a3d8p+5", "123c4a56490f17abe335bd2f280d9238") ) ]

let () =
  Alcotest.run "scale"
    [
      ( "workload",
        [
          Alcotest.test_case "exact delivery on both backends" `Quick
            test_exact_delivery;
          Alcotest.test_case "exact delivery under loss" `Quick
            test_exact_under_loss;
          Alcotest.test_case "bit-reproducible" `Quick test_reproducible;
          Alcotest.test_case "wheel and heap agree" `Quick
            test_backend_agreement;
          Alcotest.test_case "partial partition at 1k flows" `Quick
            test_partial_partition;
        ] );
      ( "sharded",
        [
          Alcotest.test_case "sharded == single-engine (1/2/4 shards)" `Quick
            test_shard_identity;
          Alcotest.test_case "sharded == single-engine under link faults"
            `Quick test_shard_identity_faults;
          Alcotest.test_case "conduit lookahead contract" `Quick
            test_conduit_lookahead;
          Alcotest.test_case "no delivery into a shard's past" `Quick
            test_shard_past_delivery_rejected;
        ] );
      ( "ports",
        [ Alcotest.test_case "Fabric.create stops at the 16-bit port space" `Quick
            (check_port_limit "Fabric.create" build_serial);
          Alcotest.test_case "Fabric.create_sharded stops at the 16-bit port space"
            `Quick (check_port_limit "Fabric.create_sharded" build_sharded) ] );
      ( "pinned",
        [ Alcotest.test_case "seeded fabric schedules" `Quick test_pinned_fabric ] );
    ]
