(* The full experiment harness: one section per experiment E1..E25 of
   DESIGN.md / EXPERIMENTS.md, regenerating every figure and quantitative
   claim of the paper, plus a Bechamel microbenchmark suite for the
   performance-shape experiments (E6/E12). Run with:

     dune exec bench/main.exe            (everything)
     dune exec bench/main.exe -- E3 E8   (selected experiments)
*)

let section id title =
  Printf.printf "\n=== %s: %s ===\n%!" id title

let headline fmt = Printf.ksprintf (fun s -> Printf.printf "  ** %s\n%!" s) fmt

let args = Array.to_list Sys.argv |> List.tl

let smoke = List.mem "--smoke" args
(* --smoke shrinks the workloads so CI can run an experiment in seconds. *)

let selected =
  let ids = List.filter (fun a -> not (String.length a >= 2 && String.sub a 0 2 = "--")) args in
  fun id -> ids = [] || List.mem id ids

(* Every file artifact lands under _bench_out/ (gitignored), never the
   repo root. *)
let out_path name =
  let dir = "_bench_out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Filename.concat dir name

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
    [ ("DV", fun () -> Network.Distance_vector.factory ());
      ("LS", fun () -> Network.Link_state.factory ());
      ("PV", fun () -> Network.Path_vector.factory ()) ]
  in
  List.iter
    (fun (tname, n, edges) ->
      List.iter
        (fun (pname, factory) ->
          let engine = Sim.Engine.create ~seed:33 () in
          let net = Network.Topology.build engine ~routing:(factory ()) ~n edges in
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
  let w = Transport.Tcp_watson.factory () in
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

(* One clock for every wall-time figure. [Sys.time] is process CPU time:
   it overstates multi-domain runs (summing across cores) and stalls
   while the process sleeps, so benches that mixed it with
   [Unix.gettimeofday] (E23) were not comparable. Every bench below
   reads this wall clock. *)
let now_wall = Unix.gettimeofday

let wall f =
  let t0 = now_wall () in
  let r = f () in
  (r, now_wall () -. t0)

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
(* E19 — per-sublayer observability: every machine in the three
   transport stacks owns named counters; running the E18 fault
   schedules and diffing against an ideal-channel baseline shows
   exactly which sublayer absorbed the faults. A JSON report of every
   snapshot is written for offline comparison (and the CI artifact). *)

let e19 () =
  section "E19" "per-sublayer stats: counter deltas under E18 fault schedules";
  let open Transport in
  let run ~factory ~seed ~bytes channel =
    let stats_a = Sublayer.Stats.create ~label:"A" () in
    let stats_b = Sublayer.Stats.create ~label:"B" () in
    let engine = Sim.Engine.create ~seed () in
    let a, b =
      Host.pair engine ~factory_a:factory ~factory_b:factory ~stats_a ~stats_b channel
    in
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
    Sim.Engine.run ~until:(Sim.Engine.now engine +. 30.) engine;
    let ok = match !server with Some srv -> Host.received srv = data | None -> false in
    (ok, Sublayer.Stats.snapshot stats_a, Sublayer.Stats.snapshot stats_b)
  in
  let schedules =
    [ ("iid loss=0.05", { (Sim.Channel.lossy 0.05) with delay = 0.02 });
      ( "burst loss=0.05 len=6",
        { (Sim.Channel.burst_lossy ~loss:0.05 ~burst_len:6.) with delay = 0.02 } ) ]
  in
  let stacks =
    [ ("sublayered", Host.sublayered);
      ("watson", Tcp_watson.factory ());
      ("secure", Tcp_secure.factory ~key:Tcp_secure.demo_key) ]
  in
  let json = Buffer.create 4096 in
  Buffer.add_string json "{";
  let first_json = ref true in
  let add_json key snap =
    if not !first_json then Buffer.add_char json ',';
    first_json := false;
    Buffer.add_string json
      (Printf.sprintf "%S:%s" key (Sublayer.Stats.snapshot_to_json snap))
  in
  List.iter
    (fun (sname, factory) ->
      Printf.printf "\n  -- stack: %s --\n" sname;
      let ok0, base, _ =
        run ~factory ~seed:91 ~bytes:120_000 { Sim.Channel.ideal with delay = 0.02 }
      in
      add_json (sname ^ "/baseline") base;
      Printf.printf "  baseline (ideal channel, 120KB, exact=%b), sender counters:\n" ok0;
      List.iter (fun (k, v) -> Printf.printf "    %-28s %10d\n" k v) base;
      List.iter
        (fun (cname, ch) ->
          let ok, snap, _ = run ~factory ~seed:91 ~bytes:120_000 ch in
          let d = Sublayer.Stats.delta ~before:base ~after:snap in
          add_json (Printf.sprintf "%s/%s" sname cname) d;
          Printf.printf "  delta vs baseline under %s (exact=%b):\n" cname ok;
          List.iter (fun (k, v) -> Printf.printf "    %-28s %+10d\n" k v) d)
        schedules)
    stacks;
  Buffer.add_char json '}';
  let path = out_path "e19_stats.json" in
  let oc = open_out path in
  output_string oc (Buffer.contents json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\n  JSON report written to %s\n" path;
  headline
    "faults localise in the counters: loss shows up as rd.retransmits/cc.losses, never in dm or rec — the per-sublayer view a monolith cannot give"

(* ------------------------------------------------------------------ *)
(* E20 — causal span tracing: where does a byte's latency go? The
   sublayered stack runs the E18 fault schedules with a shared tracer;
   every finished span is a sojourn in one sublayer, so grouping span
   durations by sublayer.name is a latency-attribution table, and the
   whole run exports as Chrome trace_event JSON for Perfetto. *)

let e20 () =
  section "E20" "span tracing: per-sublayer latency attribution under E18 faults";
  let open Transport in
  let bytes = if smoke then 20_000 else 120_000 in
  let was_enabled = Sim.Tracer.enabled () in
  Sim.Tracer.set_enabled true;
  let schedules =
    [ ("iid loss=0.05", { (Sim.Channel.lossy 0.05) with delay = 0.02 });
      ( "burst loss=0.05 len=6",
        { (Sim.Channel.burst_lossy ~loss:0.05 ~burst_len:6.) with delay = 0.02 } ) ]
  in
  let last_trace = ref None in
  List.iter
    (fun (cname, channel) ->
      let tracer = Sim.Tracer.create ~capacity:65536 () in
      let engine = Sim.Engine.create ~seed:91 () in
      let a, b = Host.pair engine ~tracer channel in
      Host.listen b ~port:80;
      let server = ref None in
      Host.on_accept b (fun c -> server := Some c);
      let c = Host.connect a ~remote_port:80 () in
      let data = random_data 91 bytes in
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
      let ok = match !server with Some srv -> Host.received srv = data | None -> false in
      (* Each finished interval span is one sojourn; instants (duration 0)
         are markers, not waiting time, and stay out of the table. *)
      let spans =
        List.filter
          (fun s ->
            Float.is_finite s.Sim.Tracer.sp_end && Sim.Tracer.duration s > 0.)
          (Sim.Tracer.spans tracer)
      in
      let groups = Hashtbl.create 16 in
      List.iter
        (fun s ->
          let k = s.Sim.Tracer.sp_sublayer ^ "." ^ s.Sim.Tracer.sp_name in
          let l = Option.value ~default:[] (Hashtbl.find_opt groups k) in
          Hashtbl.replace groups k (Sim.Tracer.duration s :: l))
        spans;
      let total =
        Hashtbl.fold (fun _ ds acc -> acc +. List.fold_left ( +. ) 0. ds) groups 0.
      in
      let pct sorted p =
        let n = Array.length sorted in
        sorted.(min (n - 1) (int_of_float (Float.of_int n *. p)))
      in
      Printf.printf "\n  %s (exact=%b, %d interval spans, %d evicted from ring):\n"
        cname ok (List.length spans) (Sim.Tracer.dropped tracer);
      Printf.printf "  %-24s %8s %12s %12s %8s\n" "sublayer.span" "count"
        "p50(ms)" "p99(ms)" "share";
      let rows = Hashtbl.fold (fun k ds acc -> (k, ds) :: acc) groups [] in
      List.iter
        (fun (k, ds) ->
          let a = Array.of_list (List.sort Float.compare ds) in
          let sum = Array.fold_left ( +. ) 0. a in
          Printf.printf "  %-24s %8d %12.2f %12.2f %7.1f%%\n" k (Array.length a)
            (pct a 0.5 *. 1e3) (pct a 0.99 *. 1e3)
            (100. *. sum /. total))
        (List.sort compare rows);
      last_trace := Some (Sim.Tracer.to_chrome_json tracer))
    schedules;
  (match !last_trace with
  | Some json ->
      let path = out_path "e20_trace.json" in
      let oc = open_out path in
      output_string oc json;
      output_char oc '\n';
      close_out oc;
      Printf.printf
        "\n  Chrome trace written to %s (open in ui.perfetto.dev or chrome://tracing)\n"
        path
  | None -> ());
  Sim.Tracer.set_enabled was_enabled;
  headline
    "burst loss moves latency share from osr.buffer into rd.flight and osr.reasm — the trace names the sublayer that held the byte"

(* ------------------------------------------------------------------ *)
(* E21 — many-flow scale: the timing-wheel scheduler vs the reference
   binary heap under thousands of concurrent sublayered TCP flows on the
   N-host fabric. Reports wall time, events/sec, the live-timer
   high-water mark and allocation for each (backend, flow-count) cell;
   every cell must reach exact delivery and quiescence. *)

let e21 () =
  section "E21" "many-flow scale: wheel vs heap scheduler at 10/100/1k/5k flows";
  let flow_counts = if smoke then [ 10; 100 ] else [ 10; 100; 1000; 5000 ] in
  let bytes = if smoke then 2_000 else 8_000 in
  let cell ~backend ~flows =
    let engine = Sim.Engine.create ~seed:67 ~backend () in
    let channel =
      { (Sim.Channel.lossy 0.01) with Sim.Channel.delay = 0.02 }
    in
    let fabric =
      Transport.Fabric.create engine ~hosts:8 ~channel ~flows ~bytes ()
    in
    let alloc0 = Gc.allocated_bytes () in
    let wall0 = now_wall () in
    let r =
      Sim.Workload.run ~spacing:0.005 ~until:900. ~name:"e21" ~engine ~flows
        (Transport.Fabric.ops fabric)
    in
    let wall = now_wall () -. wall0 in
    let alloc = Gc.allocated_bytes () -. alloc0 in
    let fired = r.Sim.Workload.soak.Sim.Soak.events_fired in
    let eps = if wall > 0. then float_of_int fired /. wall else 0. in
    if not (Sim.Workload.ok r) then
      Printf.printf "  !! %s/%d NOT CLEAN: %s\n"
        (match backend with `Wheel -> "wheel" | `Heap -> "heap")
        flows
        (Format.asprintf "%a" Sim.Workload.pp_report r);
    (r, wall, alloc, fired, eps)
  in
  let json = Buffer.create 1024 in
  Buffer.add_string json "{\"cells\":[";
  let first = ref true in
  Printf.printf "  %-7s %7s %10s %10s %12s %10s %10s %6s\n" "backend" "flows"
    "events" "wall(s)" "events/sec" "live_hwm" "alloc(MB)" "exact";
  let speed = Hashtbl.create 8 in
  List.iter
    (fun flows ->
      List.iter
        (fun backend ->
          let bname = match backend with `Wheel -> "wheel" | `Heap -> "heap" in
          let r, wall, alloc, fired, eps = cell ~backend ~flows in
          Hashtbl.replace speed (bname, flows) eps;
          Printf.printf "  %-7s %7d %10d %10.3f %12.0f %10d %10.1f %5d/%d\n"
            bname flows fired wall eps r.Sim.Workload.live_hwm
            (alloc /. 1048576.) r.Sim.Workload.exact r.Sim.Workload.flows;
          if not !first then Buffer.add_char json ',';
          first := false;
          Buffer.add_string json
            (Printf.sprintf
               "{\"backend\":%S,\"flows\":%d,\"events\":%d,\"wall_s\":%.6f,\"events_per_sec\":%.0f,\"live_hwm\":%d,\"allocated_bytes\":%.0f,\"exact\":%d,\"ok\":%b}"
               bname flows fired wall eps r.Sim.Workload.live_hwm alloc
               r.Sim.Workload.exact (Sim.Workload.ok r)))
        [ `Heap; `Wheel ])
    flow_counts;
  Buffer.add_string json "]}";
  let path = out_path "e21_scale.json" in
  let oc = open_out path in
  output_string oc (Buffer.contents json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\n  JSON report written to %s\n" path;
  let biggest = List.fold_left max 0 flow_counts in
  let w = try Hashtbl.find speed ("wheel", biggest) with Not_found -> 0. in
  let h = try Hashtbl.find speed ("heap", biggest) with Not_found -> 1. in
  headline
    "wheel vs heap at %d flows: %.0f vs %.0f events/sec (%.2fx) — O(1) schedule/cancel is what survives contact with thousands of RTO timers"
    biggest w h (if h > 0. then w /. h else 0.)

(* E22 — zero-copy data path: the wirebuf/slice path (one buffer per
   packet, headers pushed, views narrowed on rx) vs the legacy
   copy-per-sublayer mode ([Wirebuf.set_eager true], bit-identical wire
   bytes) on both scheduler backends. Reports bytes copied per delivered
   segment (from [Slice]'s process-wide copy accounting over DM's
   [segments_in] counter) and events/sec; same-seed cells must fire the
   same event count in both modes. *)

let e22 () =
  section "E22" "zero-copy slice path vs copy-per-sublayer at 100/1k/5k flows";
  let flow_counts = if smoke then [ 20; 100 ] else [ 100; 1000; 5000 ] in
  let bytes = if smoke then 2_000 else 8_000 in
  let cell ~backend ~eager ~flows =
    Bitkit.Wirebuf.set_eager eager;
    Fun.protect
      ~finally:(fun () -> Bitkit.Wirebuf.set_eager false)
      (fun () ->
        let engine = Sim.Engine.create ~seed:68 ~backend () in
        let channel =
          { (Sim.Channel.lossy 0.01) with Sim.Channel.delay = 0.02 }
        in
        let stats = Sublayer.Stats.create ~label:"e22" () in
        let fabric =
          Transport.Fabric.create engine ~hosts:8 ~stats ~channel ~flows ~bytes
            ()
        in
        Bitkit.Slice.reset_copied ();
        let wall0 = now_wall () in
        let r =
          Sim.Workload.run ~spacing:0.005 ~until:900. ~name:"e22" ~engine
            ~flows
            (Transport.Fabric.ops fabric)
        in
        let wall = now_wall () -. wall0 in
        let copied = Bitkit.Slice.copied_bytes () in
        let segments =
          List.fold_left
            (fun acc (name, v) ->
              if Filename.check_suffix name "dm.segments_in" then acc + v
              else acc)
            0
            (Sublayer.Stats.snapshot stats)
        in
        let fired = r.Sim.Workload.soak.Sim.Soak.events_fired in
        let eps = if wall > 0. then float_of_int fired /. wall else 0. in
        if not (Sim.Workload.ok r) then
          Printf.printf "  !! %s/%s/%d NOT CLEAN: %s\n"
            (match backend with `Wheel -> "wheel" | `Heap -> "heap")
            (if eager then "copy" else "slice")
            flows
            (Format.asprintf "%a" Sim.Workload.pp_report r);
        (r, wall, copied, segments, fired, eps))
  in
  let json = Buffer.create 1024 in
  Buffer.add_string json "{\"cells\":[";
  let first = ref true in
  Printf.printf "  %-7s %-6s %7s %10s %12s %12s %12s %10s\n" "backend" "mode"
    "flows" "events" "events/sec" "copied(B)" "segments" "B/segment";
  let table = Hashtbl.create 16 in
  List.iter
    (fun flows ->
      List.iter
        (fun backend ->
          let bname = match backend with `Wheel -> "wheel" | `Heap -> "heap" in
          List.iter
            (fun eager ->
              let mode = if eager then "copy" else "slice" in
              let r, wall, copied, segments, fired, eps =
                cell ~backend ~eager ~flows
              in
              let per_seg =
                if segments > 0 then
                  float_of_int copied /. float_of_int segments
                else 0.
              in
              Hashtbl.replace table (bname, mode, flows) (per_seg, eps, fired);
              Printf.printf "  %-7s %-6s %7d %10d %12.0f %12d %12d %10.1f\n"
                bname mode flows fired eps copied segments per_seg;
              if not !first then Buffer.add_char json ',';
              first := false;
              Buffer.add_string json
                (Printf.sprintf
                   "{\"backend\":%S,\"mode\":%S,\"flows\":%d,\"events\":%d,\"wall_s\":%.6f,\"events_per_sec\":%.0f,\"copied_bytes\":%d,\"segments\":%d,\"bytes_per_segment\":%.1f,\"exact\":%d,\"ok\":%b}"
                   bname mode flows fired wall eps copied segments per_seg
                   r.Sim.Workload.exact (Sim.Workload.ok r)))
            [ true; false ];
          (* Same seed, same backend: the two modes must be step-for-step
             identical simulations. *)
          let fired_of mode =
            let _, _, f = Hashtbl.find table (bname, mode, flows) in
            f
          in
          if fired_of "copy" <> fired_of "slice" then
            Printf.printf "  !! %s/%d: copy and slice runs diverged (%d vs %d events)\n"
              bname flows (fired_of "copy") (fired_of "slice"))
        [ `Heap; `Wheel ])
    flow_counts;
  Buffer.add_string json "]}";
  let path = out_path "e22_zerocopy.json" in
  let oc = open_out path in
  output_string oc (Buffer.contents json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\n  JSON report written to %s\n" path;
  let biggest = List.fold_left max 0 flow_counts in
  let copy_ps, copy_eps, _ = Hashtbl.find table ("wheel", "copy", biggest) in
  let slice_ps, slice_eps, _ = Hashtbl.find table ("wheel", "slice", biggest) in
  headline
    "copy vs slice at %d flows (wheel): %.0f vs %.0f bytes copied per delivered segment (%.1fx less), %.0f vs %.0f events/sec — one buffer per packet, headers pushed, views narrowed"
    biggest copy_ps slice_ps
    (if slice_ps > 0. then copy_ps /. slice_ps else 0.)
    copy_eps slice_eps

(* E23 — sharded parallel engine: the many-flow fabric partitioned
   across per-domain Sim.Engine shards exchanging cross-shard segments
   through conservative-lookahead conduits. Every cell must reach exact
   delivery, and every multi-domain cell must fire exactly the event
   count of the 1-domain cell on the same seed — the parallelism is
   free of observable effect by construction, so the only number that
   may move is events/sec. Speedup needs real cores: the harness prints
   the host's recommended domain count next to the cells so a
   single-core container's flat curve reads as what it is. *)

let e23 () =
  section "E23" "sharded parallel engine: events/sec vs domain count";
  let domain_counts = if smoke then [ 1; 2 ] else [ 1; 2; 4 ] in
  let flow_counts = if smoke then [ 1_000 ] else [ 10_000; 30_000 ] in
  let bytes = if smoke then 2_000 else 512 in
  let cores = Domain.recommended_domain_count () in
  Printf.printf "  host reports %d usable core%s\n" cores
    (if cores = 1 then "" else "s");
  let cell ~domains ~flows =
    let channel = { (Sim.Channel.lossy 0.01) with Sim.Channel.delay = 0.02 } in
    let shard =
      Sim.Shard.create ~seed:67 ~lookahead:channel.Sim.Channel.delay
        ~shards:domains ()
    in
    let fabric =
      Transport.Fabric.create_sharded shard ~hosts:16 ~channel ~flows ~bytes ()
    in
    let wall0 = now_wall () in
    let r =
      Sim.Workload.run_sharded ~spacing:0.0005 ~until:900. ~name:"e23" ~shard
        ~launch_site:(Transport.Fabric.launch_site fabric)
        ~flows
        (Transport.Fabric.ops fabric)
    in
    let wall = now_wall () -. wall0 in
    let fired = r.Sim.Workload.soak.Sim.Soak.events_fired in
    let eps = if wall > 0. then float_of_int fired /. wall else 0. in
    if not (Sim.Workload.ok r) then
      Printf.printf "  !! %d domains/%d flows NOT CLEAN: %s\n" domains flows
        (Format.asprintf "%a" Sim.Workload.pp_report r);
    (r, wall, fired, eps)
  in
  let json = Buffer.create 1024 in
  Buffer.add_string json "{\"cells\":[";
  let first = ref true in
  Printf.printf "  %-7s %8s %10s %10s %12s %10s %8s %9s\n" "domains" "flows"
    "events" "wall(s)" "events/sec" "live_hwm" "exact" "identical";
  let table = Hashtbl.create 8 in
  List.iter
    (fun flows ->
      List.iter
        (fun domains ->
          let r, wall, fired, eps = cell ~domains ~flows in
          Hashtbl.replace table (domains, flows) (fired, eps);
          let serial_fired, _ = Hashtbl.find table (1, flows) in
          let identical = fired = serial_fired in
          if not identical then
            Printf.printf
              "  !! %d domains/%d flows diverged from serial (%d vs %d events)\n"
              domains flows fired serial_fired;
          Printf.printf "  %-7d %8d %10d %10.3f %12.0f %10d %7d/%d %9s\n"
            domains flows fired wall eps r.Sim.Workload.live_hwm
            r.Sim.Workload.exact r.Sim.Workload.flows
            (if identical then "yes" else "NO");
          if not !first then Buffer.add_char json ',';
          first := false;
          Buffer.add_string json
            (Printf.sprintf
               "{\"domains\":%d,\"flows\":%d,\"events\":%d,\"wall_s\":%.6f,\"events_per_sec\":%.0f,\"live_hwm\":%d,\"exact\":%d,\"identical_to_serial\":%b,\"ok\":%b}"
               domains flows fired wall eps r.Sim.Workload.live_hwm
               r.Sim.Workload.exact identical (Sim.Workload.ok r)))
        domain_counts)
    flow_counts;
  Buffer.add_string json
    (Printf.sprintf "],\"cores\":%d}" cores);
  let path = out_path "e23_shard.json" in
  let oc = open_out path in
  output_string oc (Buffer.contents json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\n  JSON report written to %s\n" path;
  let biggest = List.fold_left max 0 flow_counts in
  let _, serial_eps = Hashtbl.find table (1, biggest) in
  let best_domains, best_eps =
    List.fold_left
      (fun (bd, be) d ->
        let _, eps = Hashtbl.find table (d, biggest) in
        if eps > be then (d, eps) else (bd, be))
      (1, serial_eps) domain_counts
  in
  headline
    "sharding at %d flows: %.0f events/sec serial, best %.0f at %d domains (%.2fx on %d core%s) — bit-identical delivery at every domain count"
    biggest serial_eps best_eps best_domains
    (if serial_eps > 0. then best_eps /. serial_eps else 0.)
    cores
    (if cores = 1 then "" else "s")

(* E25 — runtime conformance monitors: the many-flow fabric with every
   T2 interface probe live vs with no registry attached (the probes stay
   in the composition either way, carrying no-op closures). Same seed,
   same backend: the two modes must fire the same event count — monitors
   observe, they never perturb the schedule. Reports crossings checked,
   violations (must be zero) and the events/sec overhead. *)

let e25 () =
  section "E25" "conformance monitors on vs off at 100/1k/5k flows (wheel)";
  let flow_counts = if smoke then [ 20; 100 ] else [ 100; 1000; 5000 ] in
  let bytes = if smoke then 2_000 else 8_000 in
  let cell ~monitored ~flows =
    let engine = Sim.Engine.create ~seed:67 ~backend:`Wheel () in
    let channel =
      { (Sim.Channel.lossy 0.01) with Sim.Channel.delay = 0.02 }
    in
    let monitors =
      if monitored then Some (Monitor.Runtime.create ~label:"e25" ()) else None
    in
    let fabric =
      Transport.Fabric.create engine ?monitors ~hosts:8 ~channel ~flows ~bytes
        ()
    in
    let wall0 = now_wall () in
    let r =
      Sim.Workload.run ~spacing:0.005 ~until:900. ~name:"e25" ~engine ~flows
        ?invariant:(Option.map Monitor.Runtime.invariant monitors)
        ?verdicts:
          (Option.map (fun m () -> Monitor.Runtime.verdicts m) monitors)
        (Transport.Fabric.ops fabric)
    in
    let wall = now_wall () -. wall0 in
    let fired = r.Sim.Workload.soak.Sim.Soak.events_fired in
    let eps = if wall > 0. then float_of_int fired /. wall else 0. in
    let checked = match monitors with Some m -> Monitor.Runtime.checked m | None -> 0 in
    let viols =
      match monitors with Some m -> Monitor.Runtime.violation_count m | None -> 0
    in
    (match monitors with
    | Some m ->
        List.iter (fun v -> Printf.printf "  !! %s\n" v) (Monitor.Runtime.violations m)
    | None -> ());
    if not (Sim.Workload.ok r) then
      Printf.printf "  !! %s/%d NOT CLEAN: %s\n"
        (if monitored then "on" else "off")
        flows
        (Format.asprintf "%a" Sim.Workload.pp_report r);
    (r, wall, fired, eps, checked, viols)
  in
  let json = Buffer.create 1024 in
  Buffer.add_string json "{\"cells\":[";
  let first = ref true in
  Printf.printf "  %-5s %7s %10s %12s %12s %10s %6s\n" "mode" "flows" "events"
    "events/sec" "checked" "viols" "exact";
  let table = Hashtbl.create 8 in
  List.iter
    (fun flows ->
      List.iter
        (fun monitored ->
          let mode = if monitored then "on" else "off" in
          let r, wall, fired, eps, checked, viols = cell ~monitored ~flows in
          Hashtbl.replace table (mode, flows) (eps, fired);
          Printf.printf "  %-5s %7d %10d %12.0f %12d %10d %5d/%d\n" mode flows
            fired eps checked viols r.Sim.Workload.exact r.Sim.Workload.flows;
          if not !first then Buffer.add_char json ',';
          first := false;
          Buffer.add_string json
            (Printf.sprintf
               "{\"mode\":%S,\"flows\":%d,\"events\":%d,\"wall_s\":%.6f,\"events_per_sec\":%.0f,\"checked\":%d,\"violations\":%d,\"exact\":%d,\"ok\":%b}"
               mode flows fired wall eps checked viols r.Sim.Workload.exact
               (Sim.Workload.ok r)))
        [ false; true ];
      let fired_of mode = snd (Hashtbl.find table (mode, flows)) in
      if fired_of "off" <> fired_of "on" then
        Printf.printf
          "  !! %d flows: monitored and unmonitored runs diverged (%d vs %d events)\n"
          flows (fired_of "off") (fired_of "on"))
    flow_counts;
  Buffer.add_string json "]}";
  let path = out_path "e25_monitor.json" in
  let oc = open_out path in
  output_string oc (Buffer.contents json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\n  JSON report written to %s\n" path;
  let biggest = List.fold_left max 0 flow_counts in
  let off_eps, _ = Hashtbl.find table ("off", biggest) in
  let on_eps, _ = Hashtbl.find table ("on", biggest) in
  headline
    "monitors at %d flows: %.0f vs %.0f events/sec (%.1f%% overhead) — every T2 crossing conformance-checked, zero violations, same event schedule"
    biggest off_eps on_eps
    (if off_eps > 0. then (off_eps -. on_eps) /. off_eps *. 100. else 0.)

(* ------------------------------------------------------------------ *)
(* E26 — continuous telemetry: bounded-ring counter series sampled at
   the soak's slice boundaries, with per-sublayer allocation attribution
   (Sublayer.Alloc through the probe taps), under the E18 fault
   schedules. Reports minor words per delivered segment per sublayer,
   checks telemetry-on and -off runs fire identical schedules, and that
   a 2-shard run's merged deterministic series is bit-identical to the
   single-engine run. *)

let e26 () =
  section "E26" "continuous telemetry: counter series + per-sublayer allocation";
  let flow_counts = if smoke then [ 20; 100 ] else [ 100; 1000; 5000 ] in
  let bytes = if smoke then 2_000 else 8_000 in
  let channels =
    [ ("iid loss=0.05", { (Sim.Channel.lossy 0.05) with Sim.Channel.delay = 0.02 });
      ( "burst loss=0.05 len=6",
        { (Sim.Channel.burst_lossy ~loss:0.05 ~burst_len:6.) with
          Sim.Channel.delay = 0.02 } ) ]
  in
  let sublayers = [ "osr"; "rd"; "cm"; "dm"; "app"; "wire" ] in
  let words_of stats sub =
    Sublayer.Stats.value
      (Sublayer.Stats.counter (Sublayer.Stats.scope stats sub) "gc.minor_words")
  in
  let segments_of stats =
    Sublayer.Stats.value
      (Sublayer.Stats.counter (Sublayer.Stats.scope stats "dm") "segments_in")
  in
  let cell ~telemetry_on ~flows ~channel =
    let engine = Sim.Engine.create ~seed:68 ~backend:`Wheel () in
    let stats = Sublayer.Stats.create ~label:"e26" () in
    let telemetry =
      if telemetry_on then Some (Sim.Telemetry.create ~label:"e26" ()) else None
    in
    if telemetry_on then Sublayer.Alloc.set_enabled true;
    Fun.protect ~finally:(fun () -> Sublayer.Alloc.set_enabled false)
    @@ fun () ->
    let fabric =
      Transport.Fabric.create engine ~hosts:8 ~stats ?telemetry ~channel ~flows
        ~bytes ()
    in
    let wall0 = now_wall () in
    let r =
      Sim.Workload.run ~spacing:0.005 ~until:900. ~name:"e26" ~engine ~flows
        ?telemetry:(Option.map (fun t -> [ t ]) telemetry)
        (Transport.Fabric.ops fabric)
    in
    let wall = now_wall () -. wall0 in
    if not (Sim.Workload.ok r) then
      Printf.printf "  !! %s/%d NOT CLEAN: %s\n"
        (if telemetry_on then "on" else "off")
        flows
        (Format.asprintf "%a" Sim.Workload.pp_report r);
    (r, wall, stats, telemetry)
  in
  let json = Buffer.create 4096 in
  Buffer.add_string json "{\"cells\":[";
  let first = ref true in
  Printf.printf "  %-24s %7s %10s %9s |" "channel" "flows" "segments" "samples";
  List.iter (fun sub -> Printf.printf " %9s" (sub ^ " w/seg")) sublayers;
  Printf.printf "\n";
  let last_series = ref None in
  List.iter
    (fun (chan_name, channel) ->
      List.iter
        (fun flows ->
          let r_off, _, _, _ = cell ~telemetry_on:false ~flows ~channel in
          let r, wall, stats, telemetry = cell ~telemetry_on:true ~flows ~channel in
          let tele = Option.get telemetry in
          let off_fired = r_off.Sim.Workload.soak.Sim.Soak.events_fired in
          let on_fired = r.Sim.Workload.soak.Sim.Soak.events_fired in
          if off_fired <> on_fired then
            Printf.printf
              "  !! %s/%d: telemetry perturbed the schedule (%d vs %d events)\n"
              chan_name flows off_fired on_fired;
          let segs = segments_of stats in
          let per_seg sub =
            if segs = 0 then 0.
            else float_of_int (words_of stats sub) /. float_of_int segs
          in
          Printf.printf "  %-24s %7d %10d %9d |" chan_name flows segs
            (Sim.Telemetry.recorded tele);
          List.iter (fun sub -> Printf.printf " %9.1f" (per_seg sub)) sublayers;
          Printf.printf "\n";
          last_series := Some (chan_name, flows, tele);
          if not !first then Buffer.add_char json ',';
          first := false;
          Buffer.add_string json
            (Printf.sprintf
               "{\"channel\":%S,\"flows\":%d,\"events\":%d,\"wall_s\":%.6f,\"segments\":%d,\"samples\":%d,\"ring_dropped\":%d,\"schedule_identical\":%b,\"minor_words\":{%s},\"exact\":%d,\"ok\":%b}"
               chan_name flows on_fired wall segs
               (Sim.Telemetry.recorded tele)
               (Sim.Telemetry.dropped tele)
               (off_fired = on_fired)
               (String.concat ","
                  (List.map
                     (fun sub ->
                       Printf.sprintf "\"%s\":%d" sub (words_of stats sub))
                     sublayers))
               r.Sim.Workload.exact (Sim.Workload.ok r)))
        flow_counts)
    channels;
  (* Shard identity: the merged per-shard deterministic series must equal
     the single-engine series bit for bit (smallest workload — the
     property, not the scale, is under test here). *)
  let small = List.fold_left min max_int flow_counts in
  let sharded_series shards =
    let shard = Sim.Shard.create ~seed:68 ~lookahead:0.001 ~shards () in
    let stats =
      Array.init shards (fun i ->
          Sublayer.Stats.create ~label:(Printf.sprintf "shard%d" i) ())
    in
    let telemetry =
      Array.init shards (fun i ->
          Sim.Telemetry.create ~label:(Printf.sprintf "shard%d" i) ())
    in
    let fabric =
      Transport.Fabric.create_sharded shard ~hosts:8 ~stats ~telemetry
        ~channel:(snd (List.hd channels)) ~flows:small ~bytes ()
    in
    let r =
      Sim.Workload.run_sharded ~spacing:0.005 ~until:900. ~name:"e26-shard"
        ~shard
        ~launch_site:(Transport.Fabric.launch_site fabric)
        ~telemetry:(Array.to_list telemetry) ~flows:small
        (Transport.Fabric.ops fabric)
    in
    if not (Sim.Workload.ok r) then
      Printf.printf "  !! %d-shard run NOT CLEAN\n" shards;
    Sim.Telemetry.merged_deterministic (Array.to_list telemetry)
  in
  let serial = sharded_series 1 in
  let sharded = sharded_series 2 in
  let shard_identical = serial = sharded in
  if not shard_identical then
    Printf.printf "  !! 2-shard deterministic series diverged from single-engine\n";
  Printf.printf "\n  shard identity at %d flows: %s (%d samples)\n" small
    (if shard_identical then "bit-identical" else "DIVERGED")
    (List.length serial);
  (* One counter time series, printed and embedded in the artifact. *)
  (match !last_series with
  | Some (chan_name, flows, tele) ->
      let key = "fabric.osr.bytes_delivered" in
      let series =
        List.filter_map
          (fun (ts, kvs) ->
            Option.map (fun v -> (ts, v)) (List.assoc_opt key kvs))
          (Sim.Telemetry.deterministic_series tele)
      in
      Printf.printf "\n  %s over virtual time (%s, %d flows, per-slice deltas):\n"
        key chan_name flows;
      let n = List.length series in
      List.iteri
        (fun i (ts, v) ->
          if i < 6 || i >= n - 2 then Printf.printf "    t=%7.2f  +%d\n" ts v
          else if i = 6 then Printf.printf "    ... (%d more slices)\n" (n - 8))
        series;
      Buffer.add_string json
        (Printf.sprintf "],\"shard_identical\":%b,\"series\":%s}" shard_identical
           (Sim.Telemetry.to_json tele))
  | None -> Buffer.add_string json "],\"shard_identical\":false}");
  let path = out_path "e26_telemetry.json" in
  let oc = open_out path in
  output_string oc (Buffer.contents json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\n  JSON report written to %s\n" path;
  (match !last_series with
  | Some (_, flows, _) ->
      headline
        "per-sublayer allocation attributed through the probe taps at %d flows — counter series sampled at every soak slice, telemetry-on/off schedules identical, 2-shard series bit-identical to single-engine"
        flows
  | None -> ())

(* ------------------------------------------------------------------ *)
(* E27 — steady-state pooled data path: Bitkit.Pool arena loans vs
   per-segment heap emits, with the chain-digest detector trailer. *)

let e27 () =
  section "E27" "pooled data path: arena loans vs heap emits at 100/1k/5k flows";
  let flow_counts = if smoke then [ 20; 100 ] else [ 100; 1000; 5000 ] in
  let bytes = if smoke then 2_000 else 8_000 in
  let channel = { (Sim.Channel.lossy 0.05) with Sim.Channel.delay = 0.02 } in
  let sublayers = [ "osr"; "rd"; "cm"; "dm"; "app"; "wire" ] in
  let counter stats sub name =
    Sublayer.Stats.value
      (Sublayer.Stats.counter (Sublayer.Stats.scope stats sub) name)
  in
  let cell ~pooled ~flows =
    let engine = Sim.Engine.create ~seed:68 ~backend:`Wheel () in
    let stats = Sublayer.Stats.create ~label:"e27" () in
    (* Telemetry is present only so the endpoints install their
       allocation cells; nothing samples it — both modes pay the same
       (inert) probe cost, keeping the comparison fair. *)
    let telemetry = Sim.Telemetry.create ~label:"e27" () in
    Sublayer.Alloc.set_enabled true;
    Fun.protect ~finally:(fun () -> Sublayer.Alloc.set_enabled false)
    @@ fun () ->
    let pool =
      if pooled then Some (Bitkit.Pool.create ~slots:4096 ~slot_bytes:2048 ())
      else None
    in
    Bitkit.Slice.reset_copied ();
    let fabric =
      Transport.Fabric.create engine ~hosts:8 ~stats ~telemetry ?pool ~channel
        ~flows ~bytes ()
    in
    let wall0 = now_wall () in
    let r =
      Sim.Workload.run ~spacing:0.005 ~until:900. ~name:"e27" ~engine ~flows
        ~drops:(fun () -> Transport.Fabric.pool_stats fabric)
        (Transport.Fabric.ops fabric)
    in
    let wall = now_wall () -. wall0 in
    if not (Sim.Workload.ok r) then
      Printf.printf "  !! %s/%d NOT CLEAN: %s\n"
        (if pooled then "pool" else "heap")
        flows
        (Format.asprintf "%a" Sim.Workload.pp_report r);
    (r, wall, stats, Bitkit.Slice.copied_bytes (),
     Transport.Fabric.pool_stats fabric)
  in
  let json = Buffer.create 4096 in
  Buffer.add_string json "{\"fabric\":[";
  let first = ref true in
  Printf.printf "  %-5s %7s %10s %8s %12s %8s %8s |" "mode" "flows" "segments"
    "wall(s)" "copied_B" "hwm" "overrun";
  List.iter (fun sub -> Printf.printf " %9s" (sub ^ " w/seg")) sublayers;
  Printf.printf "\n";
  List.iter
    (fun flows ->
      let r_off, wall_off, stats_off, copied_off, _ =
        cell ~pooled:false ~flows
      in
      let r_on, wall_on, stats_on, copied_on, pstats =
        cell ~pooled:true ~flows
      in
      (* Loans must not perturb the run: same events, same virtual
         time, same per-slice samples, same delivery outcome. *)
      let identical =
        r_off.Sim.Workload.soak.Sim.Soak.events_fired
          = r_on.Sim.Workload.soak.Sim.Soak.events_fired
        && r_off.Sim.Workload.soak.Sim.Soak.vtime
             = r_on.Sim.Workload.soak.Sim.Soak.vtime
        && r_off.Sim.Workload.soak.Sim.Soak.samples
             = r_on.Sim.Workload.soak.Sim.Soak.samples
        && r_off.Sim.Workload.exact = r_on.Sim.Workload.exact
      in
      if not identical then
        Printf.printf "  !! %d flows: pool perturbed the schedule\n" flows;
      let row tag r wall stats copied pstats =
        let segs = counter stats "dm" "segments_in" in
        let per_seg sub =
          if segs = 0 then 0.
          else float_of_int (counter stats sub "gc.minor_words")
               /. float_of_int segs
        in
        Printf.printf "  %-5s %7d %10d %8.2f %12d %8d %8d |" tag flows segs wall
          copied
          (match List.assoc_opt "hwm" pstats with Some v -> v | None -> 0)
          (match List.assoc_opt "overruns" pstats with Some v -> v | None -> 0);
        List.iter (fun sub -> Printf.printf " %9.1f" (per_seg sub)) sublayers;
        Printf.printf "\n";
        if not !first then Buffer.add_char json ',';
        first := false;
        Buffer.add_string json
          (Printf.sprintf
             "{\"mode\":%S,\"flows\":%d,\"events\":%d,\"wall_s\":%.6f,\"segments\":%d,\"copied_bytes\":%d,\"copied_app_bytes\":%d,\"schedule_identical\":%b,\"minor_words\":{%s},\"pool\":{%s},\"exact\":%d,\"ok\":%b}"
             tag flows r.Sim.Workload.soak.Sim.Soak.events_fired wall segs
             copied
             (counter stats "osr" "copied_app_bytes")
             identical
             (String.concat ","
                (List.map
                   (fun sub ->
                     Printf.sprintf "\"%s\":%d" sub
                       (counter stats sub "gc.minor_words"))
                   sublayers))
             (String.concat ","
                (List.map (fun (k, v) -> Printf.sprintf "%S:%d" k v) pstats))
             r.Sim.Workload.exact (Sim.Workload.ok r))
      in
      row "heap" r_off wall_off stats_off copied_off [];
      row "pool" r_on wall_on stats_on copied_on pstats)
    flow_counts;
  (* The Rec seal boundary: one secure pair, pooled vs heap. Pool-on,
     the record is built (and encrypted, and tagged) in the slot the
     wire sees — [copied_seal_bytes] counts the payload move alone. *)
  let seal_cell ~pooled =
    let engine = Sim.Engine.create ~seed:69 () in
    let stats_a = Sublayer.Stats.create ~label:"A" () in
    let stats_b = Sublayer.Stats.create ~label:"B" () in
    let telemetry = Sim.Telemetry.create ~label:"e27s" () in
    Sublayer.Alloc.set_enabled true;
    Fun.protect ~finally:(fun () -> Sublayer.Alloc.set_enabled false)
    @@ fun () ->
    let factory =
      Transport.Tcp_secure.factory ~key:Transport.Tcp_secure.demo_key
    in
    let pool =
      if pooled then Some (Bitkit.Pool.create ~slots:256 ~slot_bytes:2048 ())
      else None
    in
    let a, b =
      Transport.Host.pair engine ~factory_a:factory ~factory_b:factory ~stats_a
        ~stats_b ~telemetry ?pool Sim.Channel.ideal
    in
    Transport.Host.listen b ~port:80;
    Bitkit.Slice.reset_copied ();
    let c = Transport.Host.connect a ~remote_port:80 () in
    Transport.Host.write c (String.make 40_000 's');
    Transport.Host.close c;
    Sim.Engine.run ~until:60. engine;
    let both name =
      counter stats_a "rec" name + counter stats_b "rec" name
    in
    ( Transport.Host.finished c,
      Sim.Engine.events_fired engine,
      both "copied_seal_bytes",
      both "gc.minor_words",
      both "records_sent",
      Bitkit.Slice.copied_bytes () )
  in
  let ok_off, ev_off, seal_off, rw_off, rec_off, total_off =
    seal_cell ~pooled:false
  in
  let ok_on, ev_on, seal_on, rw_on, rec_on, total_on = seal_cell ~pooled:true in
  let perr recs v =
    if recs = 0 then 0. else float_of_int v /. float_of_int recs
  in
  Printf.printf
    "\n  rec seal (40 kB secure pair): heap %d B sealed, %.0f w/record; pool %d \
     B, %.0f w/record; %d B total both; schedules %s\n"
    seal_off (perr rec_off rw_off) seal_on (perr rec_on rw_on) total_on
    (if ev_off = ev_on then "identical" else "DIVERGED");
  if not (ok_off && ok_on && total_off = total_on) then
    Printf.printf "  !! seal pair NOT CLEAN\n";
  Buffer.add_string json
    (Printf.sprintf
       "],\"seal\":{\"heap\":{\"copied_seal_bytes\":%d,\"minor_words\":%d,\"records\":%d,\"copied_bytes\":%d},\"pool\":{\"copied_seal_bytes\":%d,\"minor_words\":%d,\"records\":%d,\"copied_bytes\":%d},\"schedule_identical\":%b,\"ok\":%b}"
       seal_off rw_off rec_off total_off seal_on rw_on rec_on total_on
       (ev_off = ev_on) (ok_off && ok_on));
  (* The detector trailer: the chain digest folds over the wirebuf in a
     loaned slot, so the only bytes this sublayer copies are the trailer
     itself (2 for Fletcher-16) — heap mode flattens the whole frame. *)
  let dl_cell ~pooled ~payload_bytes =
    let engine = Sim.Engine.create ~seed:70 () in
    let stats_a = Sublayer.Stats.create ~label:"A" () in
    let telemetry = Sim.Telemetry.create ~label:"e27dl" () in
    Sublayer.Alloc.set_enabled true;
    Fun.protect ~finally:(fun () -> Sublayer.Alloc.set_enabled false)
    @@ fun () ->
    let pool =
      if pooled then Some (Bitkit.Pool.create ~slots:64 ~slot_bytes:4096 ())
      else None
    in
    (* Fletcher-16 keeps the fold state in an immediate int, so the
       pooled protect allocates nothing proportional to the frame — the
       CRC detectors stream identically but box their Int64 state. *)
    let spec =
      { Datalink.Stack.default_spec with
        Datalink.Stack.detector = Datalink.Detector.fletcher16 }
    in
    let link =
      Datalink.Stack.link engine ~stats_a ~telemetry ?pool Sim.Channel.ideal
        spec
    in
    let payloads =
      List.init 200 (fun i ->
          Printf.sprintf "%04d%s" i (String.make (payload_bytes - 4) 'd'))
    in
    let got = Datalink.Stack.transfer engine link payloads in
    let frames = counter stats_a "detector" "frames_protected" in
    ( List.length got = List.length payloads,
      frames,
      counter stats_a "detector" "copied_trailer_bytes",
      counter stats_a "detector" "gc.minor_words" )
  in
  let per fr v = if fr = 0 then 0. else float_of_int v /. float_of_int fr in
  (* Sweep the frame size: the heap path's per-frame words grow with the
     frame (it flattens it), the pooled path's stay a constant bit of
     machinery — the per-byte allocation is gone. *)
  Printf.printf "\n  detector (200 frames): %8s %12s %12s %12s %12s\n" "bytes"
    "heap B/frm" "heap w/frm" "pool B/frm" "pool w/frm";
  Buffer.add_string json ",\"datalink\":[";
  let dl_first = ref true in
  let dl_rows =
    List.map
      (fun payload_bytes ->
        let ok_off, fr_off, tr_off, dw_off =
          dl_cell ~pooled:false ~payload_bytes
        in
        let ok_on, fr_on, tr_on, dw_on = dl_cell ~pooled:true ~payload_bytes in
        Printf.printf "  %21d %12.0f %12.1f %12.0f %12.1f\n" payload_bytes
          (per fr_off tr_off) (per fr_off dw_off) (per fr_on tr_on)
          (per fr_on dw_on);
        if not (ok_off && ok_on) then
          Printf.printf "  !! datalink link NOT CLEAN at %d B\n" payload_bytes;
        if not !dl_first then Buffer.add_char json ',';
        dl_first := false;
        Buffer.add_string json
          (Printf.sprintf
             "{\"payload_bytes\":%d,\"heap\":{\"frames\":%d,\"copied_trailer_bytes\":%d,\"minor_words\":%d},\"pool\":{\"frames\":%d,\"copied_trailer_bytes\":%d,\"minor_words\":%d},\"ok\":%b}"
             payload_bytes fr_off tr_off dw_off fr_on tr_on dw_on
             (ok_off && ok_on));
        (payload_bytes, per fr_off tr_off, per fr_on tr_on))
      [ 128; 512; 1024 ]
  in
  Buffer.add_string json "]}";
  let _, tr_off_big, tr_on_big =
    List.nth dl_rows (List.length dl_rows - 1)
  in
  let path = out_path "e27_pool.json" in
  let oc = open_out path in
  output_string oc (Buffer.contents json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\n  JSON report written to %s\n" path;
  headline
    "arena loans keep the emit path in place — pooled schedules bit-identical \
     to heap, detector trailer copies drop from %.0f to %.0f B/frame"
    tr_off_big tr_on_big

(* ------------------------------------------------------------------ *)
(* E28 — recursive sublayering: a complete inner sublayered-TCP
   connection rides a Transport.Tunnel over an outer (Rec-secured)
   transport connection, vs the flat stack at matched loss. Reports
   goodput, the two congestion controllers' cwnd traces (outer and
   inner CC both probe the same impaired path), and per-level p99
   latency attribution from the shared tracer. *)

let e28 () =
  section "E28" "recursive sublayering: tunneled inner stack vs flat at matched loss";
  let open Transport in
  let bytes = if smoke then 30_000 else 200_000 in
  let losses = if smoke then [ 0.02 ] else [ 0.0; 0.02; 0.05 ] in
  let was_enabled = Sim.Tracer.enabled () in
  Sim.Tracer.set_enabled true;
  Fun.protect ~finally:(fun () -> Sim.Tracer.set_enabled was_enabled)
  @@ fun () ->
  let json = Buffer.create 4096 in
  Buffer.add_string json "{\"experiment\":\"E28\",\"runs\":[";
  let first_run = ref true in
  let tunnel_run ~channel ~seed =
    let engine = Sim.Engine.create ~seed () in
    let stats = Sublayer.Stats.create ~label:"e28" () in
    let tracer = Sim.Tracer.create ~capacity:262144 () in
    let factory = Tcp_secure.factory ~key:Tcp_secure.demo_key in
    let oa, ob, _, _ =
      Host.pair_channels engine ~factory_a:factory ~factory_b:factory
        ~stats_a:stats ~stats_b:stats ~tracer channel
    in
    Host.listen ob ~port:443;
    let osrv = ref None in
    Host.on_accept ob (fun c -> osrv := Some c);
    let ocli = Host.connect oa ~remote_port:443 () in
    let rec wait_accept () =
      if !osrv = None && Sim.Engine.now engine < 60. then begin
        Sim.Engine.run ~until:(Sim.Engine.now engine +. 0.1) engine;
        wait_accept ()
      end
    in
    wait_accept ();
    let srv_conn =
      match !osrv with Some c -> c | None -> failwith "E28: outer accept"
    in
    let tun_a = Tunnel.create ~id:"tun-a" ocli in
    let tun_b = Tunnel.create ~id:"tun-b" srv_conn in
    let ins = Sublayer.Instrument.v ~stats ~tracer ~level:1 () in
    let ia = Host.create engine ~ins ~name:"iA" ~link:(Tunnel.link tun_a) () in
    let ib = Host.create engine ~ins ~name:"iB" ~link:(Tunnel.link tun_b) () in
    Host.listen ib ~port:80;
    let srv = ref None in
    Host.on_accept ib (fun c -> srv := Some c);
    let c = Host.connect ia ~remote_port:80 () in
    let data = random_data seed bytes in
    Host.write c data;
    Host.close c;
    (* The double-CC trace: both controllers' cwnd gauges live in the
       one registry, the level tag telling them apart. *)
    let outer_cwnd = Sublayer.Stats.gauge (Sublayer.Stats.scope stats "cc") "cwnd_bytes" in
    let inner_cwnd =
      Sublayer.Stats.gauge (Sublayer.Stats.scope stats "l1:cc") "cwnd_bytes"
    in
    let series = ref [] in
    let rec sampler () =
      series :=
        (Sim.Engine.now engine, Sublayer.Stats.gauge_value outer_cwnd,
         Sublayer.Stats.gauge_value inner_cwnd)
        :: !series;
      if not (Host.finished c) then
        ignore (Sim.Engine.schedule engine ~after:0.25 sampler)
    in
    sampler ();
    let rec drive () =
      if Sim.Engine.now engine < 600. && not (Host.finished c) then begin
        Sim.Engine.run ~until:(Sim.Engine.now engine +. 0.1) engine;
        drive ()
      end
    in
    drive ();
    let vtime = Float.max 0.001 (Sim.Engine.now engine) in
    Sim.Engine.run ~until:(Sim.Engine.now engine +. 30.) engine;
    let ok = match !srv with Some s -> Host.received s = data | None -> false in
    (* Per-level flight p99 out of the same tracer: sublayer names carry
       the level prefix, so grouping is one string compare. *)
    let flights level =
      let want = if level = 0 then "rd" else "l1:rd" in
      List.filter_map
        (fun s ->
          if s.Sim.Tracer.sp_sublayer = want && s.Sim.Tracer.sp_name = "flight"
             && Float.is_finite s.Sim.Tracer.sp_end
          then Some (Sim.Tracer.duration s)
          else None)
        (Sim.Tracer.spans tracer)
    in
    let pct ds p =
      match List.sort Float.compare ds with
      | [] -> 0.
      | l ->
          let a = Array.of_list l in
          a.(min (Array.length a - 1)
              (int_of_float (Float.of_int (Array.length a) *. p)))
    in
    ( ok, vtime, Float.of_int bytes /. vtime, List.rev !series,
      (pct (flights 0) 0.99, pct (flights 1) 0.99),
      (Tunnel.frames_out tun_a, Tunnel.frames_in tun_b) )
  in
  Printf.printf "  %-22s %8s %10s %14s %12s %12s\n" "path" "exact" "time(s)"
    "goodput(KB/s)" "p99 l0(ms)" "p99 l1(ms)";
  List.iter
    (fun loss ->
      let channel = { (Sim.Channel.lossy loss) with delay = 0.02 } in
      let flat = run_transfer ~seed:95 ~bytes channel in
      let ok, vtime, goodput, series, (p99_0, p99_1), (fout, fin) =
        tunnel_run ~channel ~seed:95
      in
      Printf.printf "  %-22s %8b %10.2f %14.0f %12s %12s\n"
        (Printf.sprintf "flat   loss=%.2f" loss)
        flat.ok flat.vtime (flat.goodput /. 1024.) "-" "-";
      Printf.printf "  %-22s %8b %10.2f %14.0f %12.2f %12.2f\n"
        (Printf.sprintf "tunnel loss=%.2f" loss)
        ok vtime (goodput /. 1024.) (p99_0 *. 1e3) (p99_1 *. 1e3);
      if not !first_run then Buffer.add_char json ',';
      first_run := false;
      Buffer.add_string json
        (Printf.sprintf
           "{\"loss\":%.3f,\"flat\":{\"ok\":%b,\"vtime\":%.3f,\"goodput\":%.0f},\
            \"tunnel\":{\"ok\":%b,\"vtime\":%.3f,\"goodput\":%.0f,\
            \"frames_out\":%d,\"frames_in\":%d,\
            \"p99_flight_l0\":%.6f,\"p99_flight_l1\":%.6f,\"cwnd\":["
           loss flat.ok flat.vtime flat.goodput ok vtime goodput fout fin
           p99_0 p99_1);
      List.iteri
        (fun i (t, o, inr) ->
          if i > 0 then Buffer.add_char json ',';
          Buffer.add_string json
            (Printf.sprintf "[%.2f,%d,%d]" t o inr))
        series;
      Buffer.add_string json "]}}")
    losses;
  Buffer.add_string json "]}";
  let path = out_path "e28_tunnel.json" in
  let oc = open_out path in
  output_string oc (Buffer.contents json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\n  JSON report written to %s\n" path;
  headline
    "a whole sublayered-TCP stack runs over another transport connection \
     through the Core.Link seam; two congestion controllers stack, and the \
     level tags keep every span and counter attributable"

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks: per-segment codec and stuffing costs. *)

let microbenches () =
  section "MICRO" "bechamel microbenchmarks (support for E6/E12)";
  let open Bechamel in
  let payload = random_data 3 1000 in
  let sub_segment =
    let osr = Transport.Segment.encode_osr Transport.Segment.default_osr ~payload in
    let rd =
      Transport.Segment.encode_rd
        { Transport.Segment.seq = 1001; ack = 2002; len = 1000; has_data = true;
          has_ack = true; sacks = [] }
        ~payload:osr
    in
    let cm =
      Transport.Segment.encode_cm
        { Transport.Segment.flags = Transport.Segment.no_cm_flags; isn_local = 7;
          isn_remote = 9 }
        ~payload:rd
    in
    Transport.Segment.encode_dm { Transport.Segment.src_port = 1; dst_port = 2 } ~payload:cm
  in
  let std_segment =
    Transport.Wire.encode
      { Transport.Wire.src_port = 1; dst_port = 2; seq = 1001; ack = 2002;
        flags = { Transport.Wire.no_flags with ack = true }; window = 65535 }
      ~payload
  in
  let decode_sub () =
    match Transport.Segment.decode_dm sub_segment with
    | Some (_, cm) -> (
        match Transport.Segment.decode_cm cm with
        | Some (_, rd) -> (
            match Transport.Segment.decode_rd rd with
            | Some (_, osr) -> Transport.Segment.decode_osr osr
            | None -> None)
        | None -> None)
    | None -> None
  in
  (* The same segment as the stack really builds and peels it: four
     header pushes onto the payload, one emit, and the zero-copy slice
     decoders narrowing views of the received buffer. *)
  let dm_h = { Transport.Segment.src_port = 1; dst_port = 2 } in
  let cm_h =
    { Transport.Segment.flags = Transport.Segment.no_cm_flags; isn_local = 7;
      isn_remote = 9 }
  in
  let rd_h =
    { Transport.Segment.seq = 1001; ack = 2002; len = 1000; has_data = true;
      has_ack = true; sacks = [] }
  in
  let push owner write wb = Bitkit.Wirebuf.push wb ~owner write in
  let push_emit () =
    Bitkit.Wirebuf.of_string payload
    |> push "osr" (Transport.Segment.write_osr Transport.Segment.default_osr)
    |> push "rd" (Transport.Segment.write_rd rd_h)
    |> push "cm" (Transport.Segment.write_cm cm_h)
    |> push "dm" (Transport.Segment.write_dm dm_h)
    |> Bitkit.Wirebuf.emit
  in
  let sub_slice = Bitkit.Slice.of_string sub_segment in
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
    [ Test.make ~name:"sublayered onion decode (1KB)" (Staged.stage decode_sub);
      Test.make ~name:"onion push + emit (1KB)" (Staged.stage push_emit);
      Test.make ~name:"onion slice decode (1KB)" (Staged.stage decode_slices);
      Test.make ~name:"standard header decode (1KB)"
        (Staged.stage (fun () -> Transport.Wire.decode std_segment));
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
      ("E19", e19); ("E20", e20); ("E21", e21); ("E22", e22); ("E23", e23);
      ("E25", e25); ("E26", e26); ("E27", e27); ("E28", e28);
      ("MICRO", microbenches) ]
  in
  List.iter (fun (id, f) -> if selected id then f ()) experiments;
  Printf.printf "\nAll selected experiments complete.\n"
