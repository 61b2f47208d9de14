(* The paper's experiment harness: one section per experiment E1..E16
   and E18 of DESIGN.md / EXPERIMENTS.md, regenerating every figure and
   quantitative claim of the paper and the fault study, plus a Bechamel
   microbenchmark suite for the performance-shape experiments (E6/E12).
   End-to-end performance is measured by perf/ (BENCHMARK.json), and the
   identities the later experiments established are asserted by the
   test suites. Run with:

     dune exec bench/main.exe            (everything)
     dune exec bench/main.exe -- E3 E8   (selected experiments)
*)

let section id title =
  Printf.printf "\n=== %s: %s ===\n%!" id title

let headline fmt = Printf.ksprintf (fun s -> Printf.printf "  ** %s\n%!" s) fmt

let selected =
  let ids = Array.to_list Sys.argv |> List.tl in
  fun id -> ids = [] || List.mem id ids

let random_data seed n =
  let rng = Bitkit.Rng.create seed in
  String.init n (fun _ -> Char.chr (Bitkit.Rng.int rng 256))

(* ------------------------------------------------------------------ *)
(* E1 — Figure 2: the data-link sublayer stack, with the error-
   detection mechanism swapped CRC-32 -> CRC-64 (and others) without
   touching framing, line coding or ARQ. *)

let e1 () =
  section "E1" "data-link sublayering (Fig 2): detector swaps over a noisy link";
  let payloads = List.init 200 (Printf.sprintf "frame-%04d") in
  Printf.printf "  %-12s %-12s %10s %10s %10s %10s\n" "detector" "corruption"
    "delivered" "exact" "frames_tx" "retx";
  List.iter
    (fun detector ->
      List.iter
        (fun corruption ->
          let engine = Sim.Engine.create ~seed:101 () in
          let spec = { Datalink.Stack.default_spec with detector } in
          let channel = { Sim.Channel.ideal with corruption } in
          let link = Datalink.Stack.link engine channel spec in
          let got = Datalink.Stack.transfer engine link payloads in
          let st = Datalink.Stack.arq_stats link.Datalink.Stack.a in
          Printf.printf "  %-12s %-12.2f %10d %10b %10d %10d\n" detector.Datalink.Detector.name
            corruption (List.length got) (got = payloads) st.Datalink.Arq.data_sent
            st.Datalink.Arq.retransmissions)
        [ 0.0; 0.05; 0.2 ])
    [ Datalink.Detector.crc Bitkit.Crc.crc32;
      Datalink.Detector.crc Bitkit.Crc.crc64_xz;
      Datalink.Detector.internet ];
  headline "every detector swap preserves exact delivery; only overhead changes (T3)";
  (* MAC alternative sublayer (broadcast links) *)
  Printf.printf "\n  MAC sublayer (802.11-style alternative):\n";
  Printf.printf "  %-22s %6s %10s %12s %10s\n" "policy" "plen" "offered" "utilisation"
    "fairness";
  List.iter
    (fun policy ->
      List.iter
        (fun plen ->
          List.iter
            (fun arrival ->
              let r =
                Datalink.Mac.simulate ~seed:7 ~plen ~stations:10 ~slots:40_000 ~arrival
                  policy
              in
              Printf.printf "  %-22s %6d %10.2f %12.3f %10.3f\n"
                (Datalink.Mac.policy_name policy) plen r.Datalink.Mac.offered_load
                r.Datalink.Mac.utilisation r.Datalink.Mac.fairness)
            [ 0.05; 0.2 ])
        [ 1; 4 ])
    [ Datalink.Mac.Aloha 0.1; Datalink.Mac.Csma 0.1 ];
  headline "carrier sensing only pays once transmissions outlive a slot (plen > 1)" 

(* ------------------------------------------------------------------ *)
(* E2 — Figures 3/4: network sublayering; DV <-> LS swap leaves
   forwarding untouched; convergence and failure recovery. *)

let e2 () =
  section "E2" "network sublayering (Figs 3-4): DV <-> LS swap, convergence";
  Printf.printf "  %-16s %-10s %12s %14s %12s %14s\n" "topology" "protocol"
    "converge(s)" "reconverge(s)" "ctl-bytes" "paths=shortest";
  let protocols =
    [ ("DV", Network.Distance_vector.factory); ("LS", Network.Link_state.factory);
      ("PV", Network.Path_vector.factory) ]
  in
  List.iter
    (fun (tname, n, edges) ->
      List.iter
        (fun (pname, routing) ->
          let engine = Sim.Engine.create ~seed:33 () in
          let net = Network.Topology.build engine ~routing ~n edges in
          let t0 = Network.Topology.converge net in
          let bytes0 = Network.Topology.routing_traffic_bytes net in
          let a, b = List.nth edges 0 in
          Network.Topology.fail_link net a b;
          let t1 = Network.Topology.converge net in
          let shortest =
            let d = Network.Topology.reference_distances ~n (Network.Topology.alive_edges net) in
            let ok = ref true in
            for i = 0 to n - 1 do
              for j = 0 to n - 1 do
                if i <> j && d.(i).(j) <> max_int then
                  match Network.Topology.fib_path net ~src:i ~dst:j with
                  | Some p when List.length p - 1 = d.(i).(j) -> ()
                  | _ -> ok := false
              done
            done;
            !ok
          in
          Printf.printf "  %-16s %-10s %12s %14s %12d %14b\n" tname pname
            (match t0 with Some t -> Printf.sprintf "%.1f" t | None -> "-")
            (match t1 with
            | Some t -> Printf.sprintf "%.1f" (t -. Option.value ~default:0. t0)
            | None -> "-")
            bytes0 shortest;
          Network.Topology.stop net)
        protocols)
    [ ("ring(10)", 10, Network.Topology.ring 10);
      ("grid(4x4)", 16, Network.Topology.grid 4 4);
      ("random(20)", 20, Network.Topology.random ~n:20 ~extra:10 ~seed:5) ];
  headline "three route-computation mechanisms swapped beneath an unchanged forwarding sublayer"

(* ------------------------------------------------------------------ *)
(* Transport helpers shared by E3/E4/E10/E12/E13. *)

type run_result = {
  ok : bool;
  vtime : float;
  goodput : float;  (* bytes per virtual second *)
}

let run_transfer ?(config = Transport.Config.default) ?(fa = Transport.Host.sublayered)
    ?(fb = Transport.Host.sublayered) ~seed ~bytes channel =
  let open Transport in
  let engine = Sim.Engine.create ~seed () in
  let a, b = Host.pair engine ~config ~factory_a:fa ~factory_b:fb channel in
  Host.listen b ~port:80;
  let server = ref None in
  Host.on_accept b (fun c -> server := Some c);
  let c = Host.connect a ~remote_port:80 () in
  let data = random_data seed bytes in
  Host.write c data;
  Host.close c;
  let rec drive () =
    if Sim.Engine.now engine < 600. && not (Host.finished c) then begin
      Sim.Engine.run ~until:(Sim.Engine.now engine +. 0.1) engine;
      drive ()
    end
  in
  drive ();
  let vtime = Float.max 0.001 (Sim.Engine.now engine) in
  Sim.Engine.run ~until:(Sim.Engine.now engine +. 30.) engine;
  let ok = match !server with Some srv -> Host.received srv = data | None -> false in
  { ok; vtime; goodput = Float.of_int bytes /. vtime }

(* ------------------------------------------------------------------ *)
(* E3 — Figures 5/6: the sublayered TCP under a loss/reorder sweep. *)

let e3 () =
  section "E3" "sublayered TCP (Figs 5-6): loss sweep, 200 KB streams";
  Printf.printf "  %-10s %10s %12s %14s\n" "loss" "exact" "time(s)" "goodput(KB/s)";
  List.iter
    (fun loss ->
      let r = run_transfer ~seed:55 ~bytes:200_000 (Sim.Channel.lossy loss) in
      Printf.printf "  %-10.2f %10b %12.2f %14.0f\n" loss r.ok r.vtime (r.goodput /. 1024.))
    [ 0.0; 0.01; 0.02; 0.05; 0.1; 0.2 ];
  let r = run_transfer ~seed:56 ~bytes:200_000 Sim.Channel.harsh in
  Printf.printf "  %-10s %10b %12.2f %14.0f\n" "harsh" r.ok r.vtime (r.goodput /. 1024.);
  headline "exactly-once in-order byte streams survive loss, reorder and duplication"

(* ------------------------------------------------------------------ *)
(* E4 — §3.1 interop: the shim makes the sublayered endpoint speak
   RFC 793 and interoperate with the monolithic stack. *)

let e4 () =
  section "E4" "header isomorphism + interop (shim, §3.1)";
  Printf.printf "  %-28s %10s %12s\n" "pairing" "exact" "time(s)";
  let open Transport in
  List.iter
    (fun (name, fa, fb) ->
      let r = run_transfer ~fa ~fb ~seed:66 ~bytes:100_000 (Sim.Channel.lossy 0.03) in
      Printf.printf "  %-28s %10b %12.2f\n" name r.ok r.vtime)
    [ ("sublayered <-> sublayered", Host.sublayered, Host.sublayered);
      ("monolithic <-> monolithic", Tcp_monolithic.factory, Tcp_monolithic.factory);
      ("shim       ->  monolithic", Shim.factory, Tcp_monolithic.factory);
      ("monolithic ->  shim", Tcp_monolithic.factory, Shim.factory);
      ("shim       <-> shim", Shim.factory, Shim.factory) ];
  headline "all five pairings deliver identical byte streams at comparable speed"

(* ------------------------------------------------------------------ *)
(* E5 — §4.1: the library of valid stuffing schemes. *)

let e5 () =
  section "E5" "stuffing-rule search (§4.1: paper found 66 alternate rules)";
  let show_outcome o =
    Printf.printf "  space %-28s: %6d candidates, %5d valid\n" o.Stuffing.Search.space.Stuffing.Search.sname
      o.Stuffing.Search.candidates o.Stuffing.Search.valid;
    List.iter
      (fun (k, n) -> Printf.printf "      trigger length %d: %4d valid\n" k n)
      o.Stuffing.Search.by_trigger_len
  in
  show_outcome (Stuffing.Search.run ~best_limit:3 Stuffing.Search.structured_space);
  (* rules valid for the two flags the paper discusses *)
  let fixed_flag flag_str =
    let flag = Stuffing.Rule.bits_of_string flag_str in
    let count = ref 0 and total = ref 0 in
    for k = 1 to 7 do
      for tv = 0 to (1 lsl k) - 1 do
        List.iter
          (fun stuff ->
            incr total;
            let trigger = List.init k (fun i -> (tv lsr (k - 1 - i)) land 1 = 1) in
            let s = { Stuffing.Rule.flag; rule = { Stuffing.Rule.trigger; stuff } } in
            if Stuffing.Automaton.valid s then incr count)
          [ false; true ]
      done
    done;
    Printf.printf "  flag %s: %d/%d (trigger,stuff) rules valid\n" flag_str !count !total
  in
  fixed_flag "01111110";
  fixed_flag "00000010";
  let o = Stuffing.Search.run ~best_limit:3 (Stuffing.Search.free_space ~trigger_lens:[ 7 ]) in
  show_outcome o;
  headline
    "HDLC and the paper's improved scheme are both (re)discovered; counts per space in EXPERIMENTS.md"

(* ------------------------------------------------------------------ *)
(* E6 — §4.1: overhead of stuffing rules under the random model. *)

let e6 () =
  section "E6" "stuffing overhead (§4.1: 1/32 for HDLC vs 1/128 improved)";
  Printf.printf "  %-45s %10s %12s %12s\n" "scheme" "naive" "stationary" "empirical";
  let row name scheme =
    let r = scheme.Stuffing.Rule.rule in
    Printf.printf "  %-45s 1/%-8.0f 1/%-10.1f 1/%-10.1f\n" name
      (1. /. Stuffing.Overhead.naive r)
      (1. /. Stuffing.Overhead.stationary r)
      (1. /. Stuffing.Overhead.empirical ~seed:5 r)
  in
  row "HDLC (flag 01111110, stuff 0 after 11111)" Stuffing.Rule.hdlc;
  row "paper (flag 00000010, stuff 1 after 0000001)" Stuffing.Rule.paper_best;
  let best = (Stuffing.Search.run ~best_limit:3 Stuffing.Search.structured_space).Stuffing.Search.best in
  List.iter
    (fun (s, _) -> row (Format.asprintf "search best: %a" Stuffing.Rule.pp_scheme s) s)
    best;
  headline "paper's naive numbers reproduced exactly (1/32, 1/128); exact HDLC rate is 1/62";
  headline "improvement factor: naive 4.0x, exact %.2fx"
    (Stuffing.Overhead.stationary Stuffing.Rule.hdlc.rule
    /. Stuffing.Overhead.stationary Stuffing.Rule.paper_best.rule)

(* ------------------------------------------------------------------ *)
(* E7 — §4.1: the executable lemma suite (paper: 57 Coq lemmas). *)

let e7 () =
  section "E7" "executable lemma suite (§4.1: paper proved 57 lemmas)";
  let by_sub = Hashtbl.create 8 in
  List.iter
    (fun l ->
      let k = l.Stuffing.Lemmas.sublayer in
      Hashtbl.replace by_sub k (1 + Option.value ~default:0 (Hashtbl.find_opt by_sub k)))
    Stuffing.Lemmas.all;
  Hashtbl.iter (fun k n -> Printf.printf "  %-14s %3d lemmas\n" k n) by_sub;
  let failures = Stuffing.Lemmas.failures Stuffing.Lemmas.all in
  Printf.printf "  total %d lemmas, %d failures (exhaustive to %d bits + exact automaton)\n"
    (List.length Stuffing.Lemmas.all) (List.length failures)
    Stuffing.Lemmas.exhaustive_bound;
  headline "all lemmas machine-checked; stratified per sublayer as the paper's proof was"

(* ------------------------------------------------------------------ *)
(* E8 — §4.2: verification effort, monolithic vs compositional. *)

let e8 () =
  section "E8" "model checking (§4.2): monolithic vs per-sublayer obligations";
  let row m =
    let r = Mcheck.Checker.run m in
    Printf.printf "  %-34s %9d states %9d transitions  %s\n" r.Mcheck.Checker.model
      r.Mcheck.Checker.states r.Mcheck.Checker.transitions
      (match r.Mcheck.Checker.violation with
      | None -> if r.Mcheck.Checker.deadlocks = 0 then "holds" else
          Printf.sprintf "holds, %d deadlocks" r.Mcheck.Checker.deadlocks
      | Some (m, _) -> "VIOLATED: " ^ m);
    r.Mcheck.Checker.states
  in
  let cm = row (Mcheck.Model_cm.model Mcheck.Model_cm.default) in
  let rd = row (Mcheck.Model_rd.model { Mcheck.Model_rd.default with n = 2 }) in
  let osr = row (Mcheck.Model_osr.model ~n:2) in
  let close = row (Mcheck.Model_cm.close_model ~capacity:2) in
  let mono = row (Mcheck.Model_mono.model Mcheck.Model_mono.default) in
  headline "compositional total %d states vs monolithic %d (%.1fx larger)" (cm + rd + osr + close)
    mono
    (Float.of_int mono /. Float.of_int (cm + rd + osr + close));
  let no_retx =
    Mcheck.Checker.run (Mcheck.Model_rd.model { Mcheck.Model_rd.default with retransmit = false })
  in
  Printf.printf "  (rd without retransmission: %d deadlocks found — the checker earns its keep)\n"
    no_retx.Mcheck.Checker.deadlocks

(* ------------------------------------------------------------------ *)
(* E9 — §4.2/§2.3: entangled state, quantified. *)

let e9 () =
  section "E9" "entanglement metric (§2.3/§4.2: shared PCB state)";
  Format.printf "%a" Mcheck.Entangle.pp_summary ();
  let mono = Mcheck.Entangle.entangled_pairs Mcheck.Entangle.monolithic in
  let sub =
    List.fold_left (fun a i -> a + Mcheck.Entangle.entangled_pairs i) 0
      Mcheck.Entangle.sublayered
  in
  headline "monolithic: %d entangled function pairs; sublayered: %d, none crossing a sublayer"
    mono sub

(* ------------------------------------------------------------------ *)
(* E10 — §3.1 "Replace": swap congestion control and CM mechanisms. *)

let e10 () =
  section "E10" "replaceability (challenge 5): CC and ISN swaps";
  Printf.printf "  %-14s %10s %12s %12s\n" "congestion" "exact" "time@2%loss" "time@8%loss";
  List.iter
    (fun cc ->
      let cfg = { Transport.Config.default with cc } in
      let a = run_transfer ~config:cfg ~seed:77 ~bytes:150_000 (Sim.Channel.lossy 0.02) in
      let b = run_transfer ~config:cfg ~seed:78 ~bytes:150_000 (Sim.Channel.lossy 0.08) in
      Printf.printf "  %-14s %10b %12.2f %12.2f\n" cc.Transport.Cc.algo_name (a.ok && b.ok)
        a.vtime b.vtime)
    Transport.Cc.all;
  Printf.printf "  %-14s %10s\n" "isn scheme" "exact";
  List.iter
    (fun (name, isn) ->
      let r =
        run_transfer
          ~config:{ Transport.Config.default with isn }
          ~seed:79 ~bytes:20_000 Sim.Channel.ideal
      in
      Printf.printf "  %-14s %10b\n" name r.ok)
    [ ("clock", Transport.Config.Clock); ("hashed", Transport.Config.Hashed 9);
      ("counter", Transport.Config.Counter 0) ];
  (* Whole-CM replacement: Watson's timer-based scheme (no handshake). *)
  let w = Transport.Tcp_watson.factory in
  let r = run_transfer ~fa:w ~fb:w ~seed:80 ~bytes:100_000 (Sim.Channel.lossy 0.03) in
  Printf.printf "  %-14s %10b %12.2f   (timer-based CM: no SYN/FIN at all)\n"
    "watson-cm" r.ok r.vtime;
  let engine = Sim.Engine.create () in
  let advance () = Sim.Engine.run ~until:(Sim.Engine.now engine +. 0.01) engine in
  Printf.printf "  ISN schemes: same-tuple extrapolation / off-path attack success:\n";
  List.iter
    (fun (g, make) ->
      Printf.printf "    %-10s %.2f / %.2f\n" g.Transport.Isn.gname
        (Transport.Isn.predictability g ~samples:200 ~advance)
        (Transport.Isn.attack_success ~make ~trials:50))
    [ (Transport.Isn.counter (), fun ~trial:_ -> Transport.Isn.counter ());
      (Transport.Isn.clock engine, fun ~trial:_ -> Transport.Isn.clock engine);
      ( Transport.Isn.hashed engine ~secret:1,
        fun ~trial -> Transport.Isn.hashed engine ~secret:(trial * 7919) ) ];
  headline "every mechanism swap is a value/module substitution; no other sublayer changed"

(* ------------------------------------------------------------------ *)
(* E11 — §3.1 hardware offload partitions. *)

let e11 () =
  section "E11" "hardware offload (§3.1): sublayer partitions vs fast/slow path";
  let w = Offload.workload_of_transfer ~segments:10_000 ~loss:0.02 in
  List.iter
    (fun p -> Format.printf "  %a" Offload.pp_report (Offload.simulate p w))
    Offload.partitions;
  List.iter
    (fun frac ->
      Format.printf "  %a" Offload.pp_report (Offload.fast_slow_path ~slow_fraction:frac w))
    [ 0.02; 0.1; 0.3 ];
  let best, best_speedup = Offload.best_partition w in
  Printf.printf "  exhaustive optimum over all 16 partitions: %s (%.2fx)\n"
    best.Offload.pname best_speedup;
  let dp = Offload.simulate Offload.datapath_hw w in
  let fs = Offload.fast_slow_path ~slow_fraction:0.1 w in
  headline
    "sublayer cut %.2fx is churn-insensitive; fast/slow drops from 8.7x at 2%% slow to %.2fx at 10%% and crosses below at ~20%%"
    dp.Offload.speedup_vs_software fs.Offload.speedup_vs_software

(* ------------------------------------------------------------------ *)
(* E12 — §3.1 performance objection: sublayered vs monolithic cost. *)

(* A wall clock, not [Sys.time]: process CPU time overstates
   multi-domain runs (summing across cores) and stalls while the process
   sleeps. *)
let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let e12 () =
  section "E12" "performance (§3.1): sublayered vs monolithic processing cost";
  Printf.printf "  %-24s %12s %14s %16s\n" "stack" "exact" "wall(s)/500KB" "virtual time(s)";
  let open Transport in
  List.iter
    (fun (name, fa, fb) ->
      let r, w = wall (fun () -> run_transfer ~fa ~fb ~seed:88 ~bytes:500_000 Sim.Channel.ideal) in
      Printf.printf "  %-24s %12b %14.3f %16.2f\n" name r.ok w r.vtime)
    [ ("sublayered", Host.sublayered, Host.sublayered);
      ("monolithic", Tcp_monolithic.factory, Tcp_monolithic.factory);
      ("sublayered+shim", Shim.factory, Shim.factory);
      ( "sublayered+record",
        Tcp_secure.factory ~key:Tcp_secure.demo_key,
        Tcp_secure.factory ~key:Tcp_secure.demo_key ) ];
  headline "sublayer crossings cost constants, not asymptotics (see also the microbenches)"

(* ------------------------------------------------------------------ *)
(* E13 — Figure 1: peer-wise modularity; mixed stacks interoperate. *)

let e13 () =
  section "E13" "peer sublayer independence (Fig 1): mixed-mechanism endpoints";
  let ccs = [ Transport.Cc.reno; Transport.Cc.cubic; Transport.Cc.vegas ] in
  Printf.printf "  client cc \\ server cc:";
  List.iter (fun c -> Printf.printf " %8s" c.Transport.Cc.algo_name) ccs;
  print_newline ();
  List.iter
    (fun ca ->
      Printf.printf "  %-22s" ca.Transport.Cc.algo_name;
      List.iter
        (fun cb ->
          let engine = Sim.Engine.create ~seed:91 () in
          let open Transport in
          let to_a = ref (fun (_ : Bitkit.Slice.t) -> ()) in
          let to_b = ref (fun (_ : Bitkit.Slice.t) -> ()) in
          let ch dir =
            Sim.Channel.create engine (Sim.Channel.lossy 0.02) ~size:Bitkit.Slice.length
              ~deliver:(fun s -> !dir s) ()
          in
          let ab = ch to_b and ba = ch to_a in
          let a = Host.create engine ~config:{ Config.default with cc = ca } ~name:"A"
              ~link:(Sublayer.Link.make ~transmit:(fun s -> Sim.Channel.send ab s) ()) () in
          let b = Host.create engine ~config:{ Config.default with cc = cb } ~name:"B"
              ~link:(Sublayer.Link.make ~transmit:(fun s -> Sim.Channel.send ba s) ()) () in
          to_a := Host.from_wire a;
          to_b := Host.from_wire b;
          Host.listen b ~port:80;
          let server = ref None in
          Host.on_accept b (fun c -> server := Some c);
          let c = Host.connect a ~remote_port:80 () in
          let data = random_data 92 50_000 in
          Host.write c data;
          Host.close c;
          Sim.Engine.run ~until:120. engine;
          let ok = match !server with Some s -> Host.received s = data | None -> false in
          Printf.printf " %8b" ok)
        ccs;
      print_newline ())
    ccs;
  headline "every client/server mechanism combination interoperates (peers, not copies)"

(* ------------------------------------------------------------------ *)
(* E14 — §2.1: replaceable error recovery; efficiency curves. *)

let e14 () =
  section "E14" "ARQ mechanisms (§2.1): efficiency vs loss";
  let payloads = List.init 150 (Printf.sprintf "pdu-%05d") in
  Printf.printf "  %-18s %8s %10s %10s %10s\n" "arq" "loss" "exact" "frames_tx" "time(s)";
  List.iter
    (fun (name, arq) ->
      List.iter
        (fun loss ->
          let engine = Sim.Engine.create ~seed:44 () in
          let spec =
            { Datalink.Stack.default_spec with arq;
              arq_config = { Datalink.Arq.window = 8; rto = 0.15; max_retries = 30 } }
          in
          let link = Datalink.Stack.link engine (Sim.Channel.lossy loss) spec in
          let got = Datalink.Stack.transfer engine link payloads in
          let st = Datalink.Stack.arq_stats link.Datalink.Stack.a in
          Printf.printf "  %-18s %8.2f %10b %10d %10.2f\n" name loss (got = payloads)
            st.Datalink.Arq.data_sent (Sim.Engine.now engine))
        [ 0.0; 0.05; 0.15 ])
    [ ("stop-and-wait", (module Datalink.Arq_stop_and_wait : Datalink.Arq.S));
      ("go-back-n", (module Datalink.Arq_go_back_n));
      ("selective-repeat", (module Datalink.Arq_selective_repeat)) ];
  headline "identical delivered data behind one signature; efficiency ordering SR <= GBN <= SW"

(* ------------------------------------------------------------------ *)
(* E15 — extensions: end-to-end ECN (the Fig 6 OSR bits) and the
   unordered-message sublayer replacing OSR (SST/Minion as a sublayering
   use case, paper §6). *)

let e15 () =
  section "E15" "extensions: ECN end-to-end; Msg sublayer replacing OSR";
  (* ECN: marking channel, zero loss *)
  let ecn marking =
    let engine = Sim.Engine.create ~seed:5 () in
    let b_ref = ref None in
    let to_a = ref (fun (_ : Bitkit.Slice.t) -> ()) in
    let to_b = ref (fun (_ : Bitkit.Slice.t) -> ()) in
    let ab =
      Sim.Channel.create engine { Sim.Channel.ideal with marking } ~size:Bitkit.Slice.length
        ~mark:Transport.Segment.mark_ce
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
      Transport.Tcp_sublayered.create engine ~name:"A" Transport.Config.default
        ~local_port:1 ~remote_port:2
        ~transmit:(fun s -> Sim.Channel.send ab s)
        ~events:(fun _ -> ())
    in
    let b =
      Transport.Tcp_sublayered.create engine ~name:"B" Transport.Config.default
        ~local_port:2 ~remote_port:1
        ~transmit:(fun s -> Sim.Channel.send ba s)
        ~events:(function
          | `Data s -> (
              Bitkit.Slice.add_to_buffer received s;
              match !b_ref with
              | Some b -> Transport.Tcp_sublayered.read b (Bitkit.Slice.length s)
              | None -> ())
          | _ -> ())
    in
    b_ref := Some b;
    to_a := Transport.Tcp_sublayered.from_wire a;
    to_b := Transport.Tcp_sublayered.from_wire b;
    Transport.Tcp_sublayered.listen b;
    Transport.Tcp_sublayered.connect a;
    let data = random_data 5 150_000 in
    Transport.Tcp_sublayered.write a data;
    Sim.Engine.run ~until:30. engine;
    (Buffer.contents received = data, Transport.Tcp_sublayered.cwnd a)
  in
  Printf.printf "  ECN (AQM marks instead of dropping; zero loss):\n";
  Printf.printf "  %-10s %10s %12s\n" "marking" "exact" "final cwnd";
  List.iter
    (fun m ->
      let ok, cwnd = ecn m in
      Printf.printf "  %-10.2f %10b %12.0f\n" m ok cwnd)
    [ 0.0; 0.02; 0.1; 0.3 ];
  (* Msg sublayer vs byte stream: HOL blocking under loss *)
  let hol_channel loss = { (Sim.Channel.lossy loss) with delay = 0.02 } in
  (* The HOL workload is interactive (Minion's use case): one 200-byte
     message every 50 ms over a 40 ms RTT link. Latency is measured per
     message, send to delivery. In stream mode a lost segment also stalls
     every message sent during its recovery; in message mode it delays
     only itself. *)
  let n_msgs = 200 in
  let period = 0.05 in
  let mk i = Printf.sprintf "%04d%s" i (String.make 196 'm') in
  let send_time i = Float.of_int i *. period in
  let id_of m = int_of_string (String.sub m 0 4) in
  let latencies arrivals =
    List.map (fun (t, m) -> t -. send_time (id_of m)) arrivals
  in
  let stream_mode loss =
    let engine = Sim.Engine.create ~seed:99 () in
    let a, b = Transport.Host.pair engine (hol_channel loss) in
    Transport.Host.listen b ~port:80;
    let arrivals = ref [] in
    let acc = Buffer.create 1024 in
    Transport.Host.on_accept b (fun conn ->
        Transport.Host.on_data conn (fun chunk ->
            Buffer.add_string acc chunk;
            while Buffer.length acc >= 200 do
              let m = Buffer.sub acc 0 200 in
              let rest = Buffer.sub acc 200 (Buffer.length acc - 200) in
              Buffer.clear acc;
              Buffer.add_string acc rest;
              arrivals := (Sim.Engine.now engine, m) :: !arrivals
            done));
    let c = Transport.Host.connect a ~remote_port:80 () in
    for i = 0 to n_msgs - 1 do
      ignore
        (Sim.Engine.at engine ~time:(send_time i) (fun () ->
             Transport.Host.write c (mk i)))
    done;
    Sim.Engine.run ~until:(send_time n_msgs +. 30.) engine;
    latencies (List.rev !arrivals)
  in
  let msg_mode loss =
    let engine = Sim.Engine.create ~seed:99 () in
    let to_a = ref (fun (_ : Bitkit.Slice.t) -> ()) in
    let to_b = ref (fun (_ : Bitkit.Slice.t) -> ()) in
    let ch dir =
      Sim.Channel.create engine (hol_channel loss) ~size:Bitkit.Slice.length
        ~deliver:(fun s -> !dir s)
        ()
    in
    let ab = ch to_b and ba = ch to_a in
    let arrivals = ref [] in
    let a =
      Transport.Tcp_messages.create engine ~name:"A" Transport.Config.default
        ~local_port:1 ~remote_port:2
        ~transmit:(fun s -> Sim.Channel.send ab s)
        ~events:(fun _ -> ())
    in
    let b =
      Transport.Tcp_messages.create engine ~name:"B" Transport.Config.default
        ~local_port:2 ~remote_port:1
        ~transmit:(fun s -> Sim.Channel.send ba s)
        ~events:(function
          | `Msg m -> arrivals := (Sim.Engine.now engine, m) :: !arrivals
          | _ -> ())
    in
    to_a := Transport.Tcp_messages.from_wire a;
    to_b := Transport.Tcp_messages.from_wire b;
    Transport.Tcp_messages.listen b;
    Transport.Tcp_messages.connect a;
    for i = 0 to n_msgs - 1 do
      ignore
        (Sim.Engine.at engine ~time:(send_time i) (fun () ->
             Transport.Tcp_messages.send a (mk i)))
    done;
    Sim.Engine.run ~until:(send_time n_msgs +. 30.) engine;
    latencies (List.rev !arrivals)
  in
  let stats times =
    let n = List.length times in
    let sorted = List.sort Float.compare times in
    let nth p = List.nth sorted (min (n - 1) (int_of_float (Float.of_int n *. p))) in
    (n, nth 0.5, nth 0.95)
  in
  Printf.printf
    "\n  HOL blocking: 200B message every 50 ms over a 40 ms RTT link, latency (s):\n";
  Printf.printf "  %-10s %-14s %10s %10s %10s\n" "loss" "mode" "delivered" "p50" "p95";
  List.iter
    (fun loss ->
      let sn, sp50, sp95 = stats (stream_mode loss) in
      let mn, mp50, mp95 = stats (msg_mode loss) in
      Printf.printf "  %-10.2f %-14s %10d %10.3f %10.3f\n" loss "byte-stream" sn sp50 sp95;
      Printf.printf "  %-10.2f %-14s %10d %10.3f %10.3f\n" loss "messages" mn mp50 mp95)
    [ 0.0; 0.05; 0.15 ];
  headline
    "a lost segment delays only its own message in Msg mode; the byte stream stalls everything queued behind it"

(* ------------------------------------------------------------------ *)
(* E16 — ablation: Nagle x delayed acks (the design-choice knobs OSR and
   RD hide behind their interfaces). *)

let e16 () =
  section "E16" "ablation: Nagle x delayed acks on a tinygram workload";
  let run ~nagle ~delayed_ack =
    let config = { Transport.Config.default with nagle; delayed_ack } in
    let engine = Sim.Engine.create ~seed:61 () in
    let channel = { Sim.Channel.ideal with delay = 0.005 } in
    let to_a = ref (fun (_ : Bitkit.Slice.t) -> ()) in
    let to_b = ref (fun (_ : Bitkit.Slice.t) -> ()) in
    let ch dir =
      Sim.Channel.create engine channel ~size:Bitkit.Slice.length
        ~deliver:(fun s -> !dir s)
        ()
    in
    let ab = ch to_b and ba = ch to_a in
    let received = Buffer.create 4096 in
    let a =
      Transport.Tcp_sublayered.create engine ~name:"A" config ~local_port:1
        ~remote_port:2
        ~transmit:(fun s -> Sim.Channel.send ab s)
        ~events:(fun _ -> ())
    in
    let b =
      Transport.Tcp_sublayered.create engine ~name:"B" config ~local_port:2
        ~remote_port:1
        ~transmit:(fun s -> Sim.Channel.send ba s)
        ~events:(function
          | `Data s -> Bitkit.Slice.add_to_buffer received s
          | _ -> ())
    in
    to_a := Transport.Tcp_sublayered.from_wire a;
    to_b := Transport.Tcp_sublayered.from_wire b;
    Transport.Tcp_sublayered.listen b;
    Transport.Tcp_sublayered.connect a;
    (* 100 x 50 B application writes, 2 ms apart, after establishment *)
    let writes = List.init 100 (fun i -> Printf.sprintf "%05d%s" i (String.make 45 't')) in
    List.iteri
      (fun i w ->
        ignore
          (Sim.Engine.at engine
             ~time:(1.0 +. (Float.of_int i *. 0.002))
             (fun () -> Transport.Tcp_sublayered.write a w)))
      writes;
    let expected = String.concat "" writes in
    let done_at = ref infinity in
    let rec watch () =
      if Buffer.length received >= String.length expected && !done_at = infinity then
        done_at := Sim.Engine.now engine
      else ignore (Sim.Engine.schedule engine ~after:0.001 watch)
    in
    watch ();
    Sim.Engine.run ~until:30. engine;
    let exact = Buffer.contents received = expected in
    ( exact,
      (Transport.Tcp_sublayered.osr_stats a).Transport.Osr.segments_out,
      (Transport.Tcp_sublayered.rd_stats b).Transport.Rd.acks_only,
      !done_at -. 1.0 )
  in
  Printf.printf "  %-8s %-12s %8s %10s %10s %14s\n" "nagle" "delayed-ack" "exact"
    "segments" "pure-acks" "last byte (s)";
  List.iter
    (fun (nagle, delayed_ack) ->
      let exact, segs, acks, t = run ~nagle ~delayed_ack in
      Printf.printf "  %-8b %-12b %8b %10d %10d %14.3f\n" nagle delayed_ack exact segs
        acks t)
    [ (false, false); (false, true); (true, false); (true, true) ];
  headline
    "Nagle cuts segments ~10x; delayed acks halve pure acks; together they add the classic ack-delay latency"

(* ------------------------------------------------------------------ *)
(* E18 — robustness under injected faults: Gilbert–Elliott burst loss
   vs i.i.d. loss at equal average rate, and the retransmission give-up
   (ETIMEDOUT) path on a blackholed link. *)

let e18 () =
  section "E18" "fault injection: burst vs i.i.d. loss; blackhole give-up";
  Printf.printf "  %-24s %10s %12s %14s\n" "channel" "exact" "time(s)" "goodput(KB/s)";
  (* Goodput shape only: give-up disabled so deep bursts crawl at rto_max
     instead of tripping the E18 abort path measured separately below. *)
  let patient =
    { Transport.Config.default with give_up_after = infinity; max_retries = max_int }
  in
  List.iter
    (fun loss ->
      let iid =
        run_transfer ~config:patient ~seed:81 ~bytes:200_000
          { (Sim.Channel.lossy loss) with delay = 0.02 }
      in
      let burst =
        run_transfer ~config:patient ~seed:81 ~bytes:200_000
          { (Sim.Channel.burst_lossy ~loss ~burst_len:6.) with delay = 0.02 }
      in
      Printf.printf "  %-24s %10b %12.2f %14.0f\n"
        (Printf.sprintf "iid   loss=%.2f" loss)
        iid.ok iid.vtime (iid.goodput /. 1024.);
      Printf.printf "  %-24s %10b %12.2f %14.0f\n"
        (Printf.sprintf "burst loss=%.2f len=6" loss)
        burst.ok burst.vtime (burst.goodput /. 1024.))
    [ 0.02; 0.05; 0.1 ];
  (* The give-up path: partition the link mid-transfer. Never healed, the
     sender must indicate `Aborted within give_up_after and the engine
     must quiesce; healed in time, the same scenario delivers exactly. *)
  let abort_demo heal =
    let open Transport in
    let engine = Sim.Engine.create ~seed:82 () in
    let config = { Config.default with give_up_after = 8.0; max_retries = 12 } in
    let a, b, ab, ba = Host.pair_channels engine ~config Sim.Channel.ideal in
    Host.listen b ~port:80;
    let server = ref None in
    Host.on_accept b (fun c -> server := Some c);
    let c = Host.connect a ~remote_port:80 () in
    let first = random_data 9 100_000 and second = random_data 10 100_000 in
    Host.write c first;
    let data = first ^ second in
    Sim.Faultplan.apply engine
      (Sim.Faultplan.Partition { at = 0.02 }
      :: (if heal then [ Sim.Faultplan.Heal { at = 3.0 } ] else []))
      [ Sim.Faultplan.target ~name:"a->b" ab; Sim.Faultplan.target ~name:"b->a" ba ];
    (* The second write lands in the blackhole: its give-up clock starts
       at 0.1, so the abort must come by 0.1 + give_up_after. *)
    ignore (Sim.Engine.at engine ~time:0.1 (fun () -> Host.write c second));
    let aborted_at = ref None in
    Host.on_event c (function
      | `Aborted -> aborted_at := Some (Sim.Engine.now engine)
      | _ -> ());
    Sim.Engine.run ~until:60. engine;
    let exact = match !server with Some s -> Host.received s = data | None -> false in
    (!aborted_at, exact, Sim.Engine.pending engine)
  in
  (match abort_demo false with
  | Some t, _, pending ->
      Printf.printf
        "\n  blackhole at 0.02s, never healed (give_up_after=8s):\n\
        \    aborted at t=%.2fs, %d events still pending\n" t pending
  | None, _, _ -> Printf.printf "\n  blackhole: sender failed to abort\n");
  (match abort_demo true with
  | None, exact, _ ->
      Printf.printf "  same blackhole healed at 3s: no abort, exact delivery=%b\n" exact
  | Some t, _, _ -> Printf.printf "  healed blackhole still aborted at t=%.2fs\n" t);
  headline
    "equal average loss, very different goodput: concentrated bursts are cheap for SACK at low rates but ~10x worse at 10%%; a blackholed sender aborts on deadline and the engine quiesces"

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks: per-segment codec and stuffing costs. *)

let microbenches () =
  section "MICRO" "bechamel microbenchmarks (support for E6/E12)";
  let open Bechamel in
  let payload = random_data 3 1000 in
  let std_slice =
    Bitkit.Slice.of_string
      (Transport.Wire.encode
         { Transport.Wire.src_port = 1; dst_port = 2; seq = 1001; ack = 2002;
           flags = { Transport.Wire.no_flags with ack = true }; window = 65535 }
         ~payload)
  in
  (* The segment as the stack really builds and peels it: four header
     pushes onto the payload, one emit, and the zero-copy slice decoders
     narrowing views of the received buffer. *)
  let dm_h = { Transport.Segment.src_port = 1; dst_port = 2 } in
  let cm_h =
    { Transport.Segment.flags = Transport.Segment.no_cm_flags; isn_local = 7;
      isn_remote = 9 }
  in
  let rd_h =
    { Transport.Segment.seq = 1001; ack = 2002; len = 1000; has_data = true;
      has_ack = true; sacks = [] }
  in
  let push owner header wb = Bitkit.Wirebuf.push wb ~owner header in
  let push_emit () =
    Bitkit.Wirebuf.of_string payload
    |> push "osr" (Transport.Segment.write_osr Transport.Segment.default_osr)
    |> push "rd" (Transport.Segment.write_rd rd_h)
    |> push "cm" (Transport.Segment.write_cm cm_h)
    |> push "dm" (Transport.Segment.write_dm dm_h)
    |> Bitkit.Wirebuf.emit
  in
  let sub_slice = Bitkit.Slice.of_string (push_emit ()) in
  let decode_slices () =
    match Transport.Segment.decode_dm_slice sub_slice with
    | Some (_, cm) -> (
        match Transport.Segment.decode_cm_slice cm with
        | Some (_, rd) -> (
            match Transport.Segment.decode_rd_slice rd with
            | Some (_, osr) -> Transport.Segment.decode_osr_slice osr
            | None -> None)
        | None -> None)
    | None -> None
  in
  let bits = Bitkit.Bitseq.random (Bitkit.Rng.create 1) 8192 in
  let bools = Bitkit.Bitseq.to_bool_list bits in
  let hdlc = Stuffing.Fast.compile Stuffing.Rule.hdlc in
  let framed = Stuffing.Fast.encode hdlc bits in
  let crc32 = Bitkit.Crc.make Bitkit.Crc.crc32 in
  let crc64 = Bitkit.Crc.make Bitkit.Crc.crc64_xz in
  (* The record layer's kernels as Rec runs them: in place over one
     buffer, nothing allocated per call. *)
  let chacha_key = String.make 32 'k' and chacha_nonce = String.make 12 'n' in
  let sip_key = String.make 16 'k' in
  let sealed = Bytes.of_string (payload ^ String.make 8 '\000') in
  let tests =
    [ Test.make ~name:"onion push + emit (1KB)" (Staged.stage push_emit);
      Test.make ~name:"onion slice decode (1KB)" (Staged.stage decode_slices);
      Test.make ~name:"standard header decode (1KB)"
        (Staged.stage (fun () -> Transport.Wire.decode_slice std_slice));
      Test.make ~name:"fast stuff (8Kbit)"
        (Staged.stage (fun () -> Stuffing.Fast.stuff hdlc bits));
      Test.make ~name:"fast decode (8Kbit frame)"
        (Staged.stage (fun () -> Stuffing.Fast.decode hdlc framed));
      Test.make ~name:"extraction-style stuff (8Kbit)"
        (Staged.stage (fun () -> Stuffing.Codec.stuff Stuffing.Rule.hdlc.rule bools));
      Test.make ~name:"crc32 (1KB)" (Staged.stage (fun () -> Bitkit.Crc.digest crc32 payload));
      Test.make ~name:"crc64 (1KB)" (Staged.stage (fun () -> Bitkit.Crc.digest crc64 payload));
      Test.make ~name:"chacha20 xor_into, in place (1KB)"
        (Staged.stage (fun () ->
             Bitkit.Chacha20.xor_into ~key:chacha_key ~nonce:chacha_nonce sealed ~pos:0
               ~len:(String.length payload)));
      Test.make ~name:"siphash tag_into (1KB)"
        (Staged.stage (fun () ->
             Bitkit.Siphash.tag_into ~key:sip_key payload ~pos:0
               ~len:(String.length payload) sealed (String.length payload)))
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.3) ~stabilize:false () in
  let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"micro" tests) in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  List.iter
    (fun (name, r) ->
      match Analyze.OLS.estimates r with
      | Some [ ns ] -> Printf.printf "  %-42s %12.0f ns/op\n" name ns
      | _ -> Printf.printf "  %-42s (no estimate)\n" name)
    (List.sort compare rows)

let () =
  let experiments =
    [ ("E1", e1); ("E2", e2); ("E3", e3); ("E4", e4); ("E5", e5); ("E6", e6);
      ("E7", e7); ("E8", e8); ("E9", e9); ("E10", e10); ("E11", e11); ("E12", e12);
      ("E13", e13); ("E14", e14); ("E15", e15); ("E16", e16); ("E18", e18);
      ("MICRO", microbenches) ]
  in
  List.iter (fun (id, f) -> if selected id then f ()) experiments;
  Printf.printf "\nAll selected experiments complete.\n"
