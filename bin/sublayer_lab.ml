(* sublayer-lab: a command-line front end to the library.

     dune exec bin/sublayer_lab.exe -- tcp --loss 0.05 --bytes 100000 --cc cubic
     dune exec bin/sublayer_lab.exe -- route --topology grid --protocol ls
     dune exec bin/sublayer_lab.exe -- stuffing --flag 01111110 --trigger 11111 --stuff 0
     dune exec bin/sublayer_lab.exe -- search
     dune exec bin/sublayer_lab.exe -- mcheck
*)

open Cmdliner

let random_data seed n =
  let rng = Bitkit.Rng.create seed in
  String.init n (fun _ -> Char.chr (Bitkit.Rng.int rng 256))

(* --- tcp --- *)

let tcp_cmd =
  let run loss bytes cc_name stack seed =
    let cc =
      match
        List.find_opt (fun a -> a.Transport.Cc.algo_name = cc_name) Transport.Cc.all
      with
      | Some a -> a
      | None -> Transport.Cc.reno
    in
    let factory =
      match stack with
      | "monolithic" -> Transport.Tcp_monolithic.factory
      | "shim" -> Transport.Shim.factory
      | "watson" -> Transport.Tcp_watson.factory ()
      | "secure" -> Transport.Tcp_secure.factory ~key:Transport.Tcp_secure.demo_key
      | _ -> Transport.Host.sublayered
    in
    let config = { Transport.Config.default with cc } in
    let engine = Sim.Engine.create ~seed () in
    let monitors = Monitor.Runtime.create ~label:"tcp" () in
    let a, b =
      Transport.Host.pair engine ~config ~monitors ~factory_a:factory
        ~factory_b:factory (Sim.Channel.lossy loss)
    in
    Transport.Host.listen b ~port:80;
    let server = ref None in
    Transport.Host.on_accept b (fun c -> server := Some c);
    let c = Transport.Host.connect a ~remote_port:80 () in
    let data = random_data seed bytes in
    Transport.Host.write c data;
    Transport.Host.close c;
    let rec drive () =
      if Sim.Engine.now engine < 600. && not (Transport.Host.finished c) then begin
        Sim.Engine.run ~until:(Sim.Engine.now engine +. 0.1) engine;
        drive ()
      end
    in
    drive ();
    let t = Sim.Engine.now engine in
    Sim.Engine.run ~until:(t +. 30.) engine;
    (match !server with
    | Some srv when Transport.Host.received srv = data ->
        Printf.printf "transferred %d bytes over %.0f%% loss in %.2fs virtual (%s, %s)\n"
          bytes (100. *. loss) t cc.Transport.Cc.algo_name stack
    | _ -> Printf.printf "TRANSFER FAILED\n");
    Printf.printf "conformance: %s\n"
      (match Monitor.Runtime.verdicts monitors with
      | [] -> "(no monitored interfaces)"
      | vs ->
          String.concat ", "
            (List.map
               (fun (name, checked, violated) ->
                 Printf.sprintf "%s=%d/%d" name (checked - violated) checked
                 ^ if violated > 0 then "!" else "")
               vs));
    if Monitor.Runtime.violation_count monitors > 0 then begin
      List.iter (Printf.printf "MONITOR VIOLATION: %s\n")
        (Monitor.Runtime.violations monitors);
      exit 1
    end
  in
  let loss = Arg.(value & opt float 0.02 & info [ "loss" ] ~doc:"Segment loss probability.") in
  let bytes = Arg.(value & opt int 100_000 & info [ "bytes" ] ~doc:"Stream size.") in
  let cc =
    Arg.(value & opt string "reno" & info [ "cc" ] ~doc:"reno | cubic | vegas | fixed-8 | aimd.")
  in
  let stack =
    Arg.(value & opt string "sublayered"
         & info [ "stack" ] ~doc:"sublayered | monolithic | shim | watson | secure.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Simulation seed.") in
  Cmd.v (Cmd.info "tcp" ~doc:"Run a TCP transfer in the simulator.")
    Term.(const run $ loss $ bytes $ cc $ stack $ seed)

(* --- route --- *)

let route_cmd =
  let run topology protocol =
    let routing =
      match protocol with
      | "ls" -> Network.Link_state.factory ()
      | "pv" -> Network.Path_vector.factory ()
      | _ -> Network.Distance_vector.factory ()
    in
    let n, edges =
      match topology with
      | "ring" -> (10, Network.Topology.ring 10)
      | "line" -> (8, Network.Topology.line 8)
      | "grid" -> (16, Network.Topology.grid 4 4)
      | _ -> (16, Network.Topology.random ~n:16 ~extra:8 ~seed:3)
    in
    let engine = Sim.Engine.create ~seed:1 () in
    let net = Network.Topology.build engine ~routing ~n edges in
    (match Network.Topology.converge net with
    | Some t -> Printf.printf "%s converged on %s (%d nodes) at t=%.1fs\n" protocol topology n t
    | None -> Printf.printf "did not converge\n");
    (match Network.Topology.fib_path net ~src:0 ~dst:(n - 1) with
    | Some p ->
        Printf.printf "path 0 -> %d: %s\n" (n - 1)
          (String.concat " -> " (List.map string_of_int p))
    | None -> Printf.printf "no path\n");
    Network.Topology.stop net
  in
  let topology =
    Arg.(value & opt string "random" & info [ "topology" ] ~doc:"ring | line | grid | random.")
  in
  let protocol = Arg.(value & opt string "dv" & info [ "protocol" ] ~doc:"dv | ls | pv.") in
  Cmd.v (Cmd.info "route" ~doc:"Build a routed network and converge it.")
    Term.(const run $ topology $ protocol)

(* --- stuffing --- *)

let stuffing_cmd =
  let run flag trigger stuff =
    let scheme =
      { Stuffing.Rule.flag = Stuffing.Rule.bits_of_string flag;
        rule = { Stuffing.Rule.trigger = Stuffing.Rule.bits_of_string trigger;
                 stuff = stuff = 1 } }
    in
    Printf.printf "scheme: %s\n" (Format.asprintf "%a" Stuffing.Rule.pp_scheme scheme);
    (match Stuffing.Automaton.check scheme with
    | Ok () ->
        Printf.printf "valid (exact automaton check, all data lengths)\n";
        Printf.printf "overhead: naive 1/%.0f, exact 1/%.1f\n"
          (1. /. Stuffing.Overhead.naive scheme.Stuffing.Rule.rule)
          (1. /. Stuffing.Overhead.stationary scheme.Stuffing.Rule.rule)
    | Error v ->
        Printf.printf "INVALID: %s\n" (Format.asprintf "%a" Stuffing.Automaton.pp_violation v);
        (match Stuffing.Automaton.find_counterexample scheme ~max_len:10 with
        | Some d -> Printf.printf "counterexample: %s\n" (Stuffing.Rule.string_of_bits d)
        | None -> Printf.printf "(no counterexample within 10 bits)\n"))
  in
  let flag = Arg.(value & opt string "01111110" & info [ "flag" ] ~doc:"Flag bits.") in
  let trigger = Arg.(value & opt string "11111" & info [ "trigger" ] ~doc:"Trigger bits.") in
  let stuff = Arg.(value & opt int 0 & info [ "stuff" ] ~doc:"Stuffed bit (0 or 1).") in
  Cmd.v (Cmd.info "stuffing" ~doc:"Check a bit-stuffing scheme exactly.")
    Term.(const run $ flag $ trigger $ stuff)

(* --- search --- *)

let search_cmd =
  let run () =
    Format.printf "%a"
      Stuffing.Search.pp_outcome
      (Stuffing.Search.run ~best_limit:10 Stuffing.Search.structured_space)
  in
  Cmd.v (Cmd.info "search" ~doc:"Search for valid stuffing schemes (paper §4.1).")
    Term.(const run $ const ())

(* --- mcheck --- *)

let mcheck_cmd =
  let run () =
    List.iter
      (fun m -> Format.printf "%a" Mcheck.Checker.pp_report (Mcheck.Checker.run m))
      [ Mcheck.Model_rd.model Mcheck.Model_rd.default;
        Mcheck.Model_cm.model Mcheck.Model_cm.default;
        Mcheck.Model_cm.close_model ~capacity:2;
        Mcheck.Model_osr.model ~n:6;
        Mcheck.Model_msg.model ~messages:3 ~frags:2;
        Mcheck.Model_mono.model Mcheck.Model_mono.default ];
    Format.printf "%a" Mcheck.Entangle.pp_summary ()
  in
  Cmd.v (Cmd.info "mcheck" ~doc:"Model-check the protocol models (paper §4.2).")
    Term.(const run $ const ())

(* --- stats --- *)

let stats_cmd =
  let run loss bytes stack seed json =
    let factory =
      match stack with
      | "sublayered" -> Transport.Host.sublayered
      | "watson" -> Transport.Tcp_watson.factory ()
      | "secure" -> Transport.Tcp_secure.factory ~key:Transport.Tcp_secure.demo_key
      | other ->
          Printf.eprintf
            "sublayer-lab stats: unknown stack %S (expected sublayered | watson | secure)\n"
            other;
          exit 2
    in
    let stats_a = Sublayer.Stats.create ~label:"client" () in
    let stats_b = Sublayer.Stats.create ~label:"server" () in
    let engine = Sim.Engine.create ~seed () in
    let a, b =
      Transport.Host.pair engine ~factory_a:factory ~factory_b:factory ~stats_a
        ~stats_b (Sim.Channel.lossy loss)
    in
    Transport.Host.listen b ~port:80;
    let c = Transport.Host.connect a ~remote_port:80 () in
    Transport.Host.write c (random_data seed bytes);
    Transport.Host.close c;
    let rec drive () =
      if Sim.Engine.now engine < 600. && not (Transport.Host.finished c) then begin
        Sim.Engine.run ~until:(Sim.Engine.now engine +. 0.1) engine;
        drive ()
      end
    in
    drive ();
    Sim.Engine.run ~until:(Sim.Engine.now engine +. 30.) engine;
    if json then
      Printf.printf "[%s,\n %s]\n"
        (Sublayer.Stats.to_json stats_a)
        (Sublayer.Stats.to_json stats_b)
    else begin
      Printf.printf "per-sublayer counters after %d bytes over %.0f%% loss (%s):\n\n"
        bytes (100. *. loss) stack;
      Format.printf "%a@.%a" Sublayer.Stats.pp stats_a Sublayer.Stats.pp stats_b
    end
  in
  let loss = Arg.(value & opt float 0.05 & info [ "loss" ] ~doc:"Segment loss probability.") in
  let bytes = Arg.(value & opt int 100_000 & info [ "bytes" ] ~doc:"Stream size.") in
  let stack =
    Arg.(value & opt string "sublayered"
         & info [ "stack" ] ~doc:"sublayered | watson | secure.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Simulation seed.") in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit JSON instead of text.") in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Run a lossy transfer and report every sublayer's counters.")
    Term.(const run $ loss $ bytes $ stack $ seed $ json)

(* --- trace --- *)

let trace_cmd =
  let run loss bytes =
    let engine = Sim.Engine.create ~seed:2 () in
    let tracer = Sim.Tracer.create () in
    let ins = Sublayer.Instrument.v ~tracer () in
    let to_a = ref (fun (_ : Bitkit.Slice.t) -> ()) in
    let to_b = ref (fun (_ : Bitkit.Slice.t) -> ()) in
    let ch dir =
      Sim.Channel.create engine (Sim.Channel.lossy loss) ~size:Bitkit.Slice.length
        ~deliver:(fun s -> !dir s)
        ()
    in
    let ab = ch to_b and ba = ch to_a in
    let received = Buffer.create 1024 in
    (* The server reads what each [`Data] delivers, as [Host] does, so
       OSR's receive window reopens. *)
    let read_b = ref (fun (_ : int) -> ()) in
    let a =
      Transport.Tcp_sublayered.create engine ~ins ~name:"client"
        Transport.Config.default ~local_port:1000 ~remote_port:80
        ~transmit:(fun s -> Sim.Channel.send ab s)
        ~events:(fun _ -> ())
    in
    let b =
      Transport.Tcp_sublayered.create engine ~ins ~name:"server"
        Transport.Config.default ~local_port:80 ~remote_port:1000
        ~transmit:(fun s -> Sim.Channel.send ba s)
        ~events:(function
          | `Data s ->
              Bitkit.Slice.add_to_buffer received s;
              !read_b (Bitkit.Slice.length s)
          | _ -> ())
    in
    to_a := Transport.Tcp_sublayered.from_wire a;
    to_b := Transport.Tcp_sublayered.from_wire b;
    read_b := Transport.Tcp_sublayered.read b;
    Transport.Tcp_sublayered.listen b;
    Transport.Tcp_sublayered.connect a;
    Transport.Tcp_sublayered.write a (random_data 2 bytes);
    Transport.Tcp_sublayered.close a;
    Sim.Engine.run ~until:60. engine;
    let got = Buffer.length received in
    Printf.printf "transfer of %d bytes %s (received %d); sublayer trace:\n\n" bytes
      (if got = bytes then "complete" else "incomplete")
      got;
    (* The runtime records each [Note] as an instant under "note". *)
    List.iter
      (fun (sp : Sim.Tracer.span) ->
        if sp.sp_sublayer = "note" then
          Printf.printf "%10.6f %-12s %s\n" sp.sp_start sp.sp_track sp.sp_name)
      (Sim.Tracer.spans tracer)
  in
  let loss = Arg.(value & opt float 0.1 & info [ "loss" ] ~doc:"Loss probability.") in
  let bytes = Arg.(value & opt int 5_000 & info [ "bytes" ] ~doc:"Stream size.") in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Print the sublayer event trace of a lossy transfer: every Note a sublayer \
          emits, as its runtime records it in the tracer.")
    Term.(const run $ loss $ bytes)

(* --- scale --- *)

let scale_cmd =
  let run flows hosts bytes loss backend seed =
    let backend =
      match backend with
      | "wheel" -> `Wheel
      | "heap" -> `Heap
      | other ->
          Printf.eprintf
            "sublayer-lab scale: unknown backend %S (expected wheel | heap)\n"
            other;
          exit 2
    in
    let engine = Sim.Engine.create ~seed ~backend () in
    let channel = { (Sim.Channel.lossy loss) with Sim.Channel.delay = 0.02 } in
    let monitors = Monitor.Runtime.create ~label:"scale" () in
    let fabric =
      Transport.Fabric.create engine ~hosts ~channel ~flows ~bytes ~monitors ()
    in
    let wall0 = Unix.gettimeofday () in
    let r =
      Sim.Workload.run ~spacing:0.005 ~until:900. ~name:"scale" ~engine ~flows
        ~invariant:(Monitor.Runtime.invariant monitors)
        ~verdicts:(fun () -> Monitor.Runtime.verdicts monitors)
        (Transport.Fabric.ops fabric)
    in
    let wall = Unix.gettimeofday () -. wall0 in
    Format.printf "%a@." Sim.Workload.pp_report r;
    let fired = r.Sim.Workload.soak.Sim.Soak.events_fired in
    Printf.printf "%d events in %.3fs wall = %.0f events/sec\n" fired wall
      (if wall > 0. then float_of_int fired /. wall else 0.);
    if Monitor.Runtime.violation_count monitors > 0 then begin
      List.iter (Printf.printf "MONITOR VIOLATION: %s\n")
        (Monitor.Runtime.violations monitors);
      exit 1
    end;
    if not (Sim.Workload.ok r) then exit 1
  in
  let flows = Arg.(value & opt int 1000 & info [ "flows" ] ~doc:"Concurrent flows.") in
  let hosts = Arg.(value & opt int 8 & info [ "hosts" ] ~doc:"Hosts on the fabric.") in
  let bytes = Arg.(value & opt int 8_000 & info [ "bytes" ] ~doc:"Bytes per flow.") in
  let loss = Arg.(value & opt float 0.01 & info [ "loss" ] ~doc:"Segment loss probability.") in
  let backend =
    Arg.(value & opt string "wheel" & info [ "backend" ] ~doc:"Scheduler: wheel | heap.")
  in
  let seed = Arg.(value & opt int 67 & info [ "seed" ] ~doc:"Simulation seed.") in
  Cmd.v
    (Cmd.info "scale"
       ~doc:"Soak thousands of concurrent flows on the N-host fabric.")
    Term.(const run $ flows $ hosts $ bytes $ loss $ backend $ seed)

(* --- shard --- *)

let shard_cmd =
  let run flows hosts bytes loss shards seed verify =
    let workload nshards =
      let channel = { (Sim.Channel.lossy loss) with Sim.Channel.delay = 0.02 } in
      let shard =
        Sim.Shard.create ~seed ~lookahead:channel.Sim.Channel.delay
          ~shards:nshards ()
      in
      let monitors =
        Array.init nshards (fun i ->
            Monitor.Runtime.create ~label:(Printf.sprintf "shard%d" i) ())
      in
      let fabric =
        Transport.Fabric.create_sharded shard ~hosts ~channel ~flows ~bytes
          ~ins:(Array.map (fun m -> Sublayer.Instrument.v ~monitors:m ()) monitors)
          ()
      in
      let mons = Array.to_list monitors in
      let wall0 = Unix.gettimeofday () in
      let r =
        Sim.Workload.run_sharded ~spacing:0.005 ~until:900. ~name:"shard"
          ~shard
          ~launch_site:(Transport.Fabric.launch_site fabric)
          ~invariant:(Monitor.Runtime.merged_invariant mons)
          ~verdicts:(fun () -> Monitor.Runtime.merged_verdicts mons)
          ~flows
          (Transport.Fabric.ops fabric)
      in
      let wall = Unix.gettimeofday () -. wall0 in
      (r, wall, mons)
    in
    let r, wall, mons = workload shards in
    Format.printf "%a@." Sim.Workload.pp_report r;
    let fired = r.Sim.Workload.soak.Sim.Soak.events_fired in
    Printf.printf "%d shards: %d events in %.3fs wall = %.0f events/sec\n"
      shards fired wall
      (if wall > 0. then float_of_int fired /. wall else 0.);
    let viols =
      List.fold_left (fun n m -> n + Monitor.Runtime.violation_count m) 0 mons
    in
    if viols > 0 then begin
      List.iter
        (fun m ->
          List.iter (Printf.printf "MONITOR VIOLATION: %s\n")
            (Monitor.Runtime.violations m))
        mons;
      exit 1
    end;
    if verify && shards > 1 then begin
      (* Re-run the identical scenario on one shard (a plain single
         engine, no domains) and demand the whole report match. *)
      let serial, swall, _ = workload 1 in
      Printf.printf "1 shard:  %d events in %.3fs wall = %.0f events/sec\n"
        serial.Sim.Workload.soak.Sim.Soak.events_fired swall
        (if swall > 0. then
           float_of_int serial.Sim.Workload.soak.Sim.Soak.events_fired /. swall
         else 0.);
      if r <> serial then begin
        Printf.printf "DIVERGED: sharded run is not bit-identical to serial\n";
        exit 1
      end;
      Printf.printf "sharded run is bit-identical to the single-engine run\n"
    end;
    if not (Sim.Workload.ok r) then exit 1
  in
  let flows = Arg.(value & opt int 1000 & info [ "flows" ] ~doc:"Concurrent flows.") in
  let hosts = Arg.(value & opt int 16 & info [ "hosts" ] ~doc:"Hosts on the fabric.") in
  let bytes = Arg.(value & opt int 8_000 & info [ "bytes" ] ~doc:"Bytes per flow.") in
  let loss = Arg.(value & opt float 0.01 & info [ "loss" ] ~doc:"Segment loss probability.") in
  let shards =
    Arg.(value & opt int 2 & info [ "shards" ] ~doc:"Engine shards (one domain each).")
  in
  let seed = Arg.(value & opt int 67 & info [ "seed" ] ~doc:"Simulation seed.") in
  let verify =
    Arg.(value & flag & info [ "verify" ]
           ~doc:"Also run on one shard and check bit-identity.")
  in
  Cmd.v
    (Cmd.info "shard"
       ~doc:"Run the many-flow fabric on parallel per-domain engine shards.")
    Term.(const run $ flows $ hosts $ bytes $ loss $ shards $ seed $ verify)

(* --- top --- *)

(* Live per-sublayer dashboard: the many-flow fabric with telemetry and
   allocation attribution on, redrawn at every soak slice from the last
   telemetry sample. [delay] paces the redraw in wall time so the run is
   watchable; 0 races the simulation. *)
let top_cmd =
  let run flows hosts bytes loss seed step delay =
    let engine = Sim.Engine.create ~seed ~backend:`Wheel () in
    let channel = { (Sim.Channel.lossy loss) with Sim.Channel.delay = 0.02 } in
    let stats = Sublayer.Stats.create ~label:"top" () in
    let tele = Sim.Telemetry.create ~label:"top" () in
    let fabric =
      Transport.Fabric.create engine ~hosts ~stats ~telemetry:tele ~channel
        ~flows ~bytes ()
    in
    let sublayers = [ "osr"; "rd"; "cm"; "dm"; "cc"; "app"; "wire" ] in
    let counter sub name =
      Sublayer.Stats.value
        (Sublayer.Stats.counter (Sublayer.Stats.scope stats sub) name)
    in
    let get kvs k = match List.assoc_opt k kvs with Some v -> v | None -> 0 in
    (* Sum of one sublayer's per-slice counter deltas: a single "how
       busy" number per row without hardcoding each scope's counters. *)
    let activity kvs sub =
      let prefix = "fabric." ^ sub ^ "." in
      let plen = String.length prefix in
      List.fold_left
        (fun acc (k, v) ->
          if String.length k >= plen && String.sub k 0 plen = prefix then
            acc + v
          else acc)
        0 kvs
    in
    let render now =
      match Sim.Telemetry.last_sample tele with
      | None -> ()
      | Some s ->
          let b = Buffer.create 1024 in
          Buffer.add_string b "\027[2J\027[H";
          Buffer.add_string b
            (Printf.sprintf
               "sublayer-lab top   t=%8.2fs   flows=%d   events=%d   live=%d   cwnd=%dB\n"
               now flows
               (Sim.Engine.events_fired engine)
               (Sim.Engine.live engine)
               (get s.Sim.Telemetry.nondet "fabric.cc.cwnd_bytes"));
          let segs = counter "dm" "segments_in" in
          Buffer.add_string b
            (Printf.sprintf "%s\n  %-6s %14s %14s %12s\n"
               (String.make 72 '-') "sub" "activity/slice" "minor-w/slice"
               "minor-w/seg");
          List.iter
            (fun sub ->
              let words = counter sub "gc.minor_words" in
              Buffer.add_string b
                (Printf.sprintf "  %-6s %14d %14d %12.1f\n" sub
                   (activity s.Sim.Telemetry.det sub)
                   (get s.Sim.Telemetry.nondet
                      ("fabric." ^ sub ^ ".gc.minor_words"))
                   (if segs = 0 then 0.
                    else float_of_int words /. float_of_int segs)))
            sublayers;
          Buffer.add_string b
            (Printf.sprintf
               "%s\n  segments=%d   slice-copied Δ=%dB   gc heap=%dw   samples=%d (dropped %d)\n"
               (String.make 72 '-') segs
               (get s.Sim.Telemetry.det "slice.copied_bytes")
               (get s.Sim.Telemetry.nondet "gc.heap_words")
               (Sim.Telemetry.recorded tele)
               (Sim.Telemetry.dropped tele));
          print_string (Buffer.contents b);
          flush stdout;
          if delay > 0. then Unix.sleepf delay
    in
    let r =
      Sim.Workload.run ~spacing:0.005 ~until:900. ~step ~name:"top" ~engine
        ~telemetry:[ tele ] ~on_slice:render ~flows
        (Transport.Fabric.ops fabric)
    in
    Printf.printf "\n";
    Format.printf "%a@." Sim.Workload.pp_report r;
    if not (Sim.Workload.ok r) then exit 1
  in
  let flows = Arg.(value & opt int 200 & info [ "flows" ] ~doc:"Concurrent flows.") in
  let hosts = Arg.(value & opt int 8 & info [ "hosts" ] ~doc:"Hosts on the fabric.") in
  let bytes = Arg.(value & opt int 8_000 & info [ "bytes" ] ~doc:"Bytes per flow.") in
  let loss = Arg.(value & opt float 0.01 & info [ "loss" ] ~doc:"Segment loss probability.") in
  let seed = Arg.(value & opt int 67 & info [ "seed" ] ~doc:"Simulation seed.") in
  let step =
    Arg.(value & opt float 0.5 & info [ "step" ] ~doc:"Virtual seconds per refresh.")
  in
  let delay =
    Arg.(value & opt float 0.05
         & info [ "delay" ] ~doc:"Wall seconds per refresh (0 = as fast as possible).")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Live per-sublayer telemetry dashboard over the many-flow fabric.")
    Term.(const run $ flows $ hosts $ bytes $ loss $ seed $ step $ delay)

(* --- tunnel: recursive sublayering demo (E28) --- *)

let tunnel_cmd =
  let run loss bytes flows seed plain verify =
    let open Transport in
    let channel = { (Sim.Channel.lossy loss) with Sim.Channel.delay = 0.02 } in
    (* Flat reference: one stack straight over the channel. *)
    let flat () =
      let engine = Sim.Engine.create ~seed () in
      let a, b = Host.pair engine channel in
      Host.listen b ~port:80;
      let srv = ref None in
      Host.on_accept b (fun c -> srv := Some c);
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
      let ok = match !srv with Some s -> Host.received s = data | None -> false in
      (ok, vtime)
    in
    (* The Ouroboros: an outer connection over the same channel, wrapped
       in a Tunnel; [flows] inner connections run over that link. *)
    let tunneled () =
      let engine = Sim.Engine.create ~seed () in
      let stats = Sublayer.Stats.create ~label:"tunnel" () in
      let monitors = Monitor.Runtime.create ~label:"tunnel" () in
      let factory =
        if plain then Host.sublayered
        else Tcp_secure.factory ~key:Tcp_secure.demo_key
      in
      let oa, ob, _, _ =
        Host.pair_channels engine ~factory_a:factory ~factory_b:factory
          ~stats_a:stats ~stats_b:stats ~monitors channel
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
        match !osrv with
        | Some c -> c
        | None ->
            Printf.eprintf "sublayer-lab tunnel: outer connection not accepted\n";
            exit 1
      in
      let tun_a = Tunnel.create ~id:"tun-a" ocli in
      let tun_b = Tunnel.create ~id:"tun-b" srv_conn in
      let ins = Sublayer.Instrument.v ~stats ~monitors ~level:1 () in
      let ia = Host.create engine ~ins ~name:"iA" ~link:(Tunnel.link tun_a) () in
      let ib = Host.create engine ~ins ~name:"iB" ~link:(Tunnel.link tun_b) () in
      Host.listen ib ~port:80;
      let servers = ref [] in
      Host.on_accept ib (fun c -> servers := c :: !servers);
      let data = List.init flows (fun i -> random_data (seed + i) bytes) in
      let conns =
        List.map
          (fun d ->
            let c = Host.connect ia ~remote_port:80 () in
            Host.write c d;
            Host.close c;
            c)
          data
      in
      let rec drive () =
        if Sim.Engine.now engine < 600. && not (List.for_all Host.finished conns)
        then begin
          Sim.Engine.run ~until:(Sim.Engine.now engine +. 0.1) engine;
          drive ()
        end
      in
      drive ();
      let vtime = Float.max 0.001 (Sim.Engine.now engine) in
      Sim.Engine.run ~until:(Sim.Engine.now engine +. 30.) engine;
      let exact =
        List.for_all2
          (fun c d ->
            match
              List.find_opt
                (fun srv -> Host.remote_port srv = Host.local_port c)
                !servers
            with
            | Some srv -> Host.received srv = d
            | None -> false)
          conns data
      in
      (exact, vtime, stats, monitors, Tunnel.frames_out tun_a, Tunnel.frames_in tun_b)
    in
    let flat_ok, flat_t = flat () in
    let exact, tun_t, stats, monitors, fout, fin = tunneled () in
    Printf.printf
      "flat:   %d bytes over %.0f%% loss: exact=%b in %.2fs (%.0f KB/s)\n"
      bytes (100. *. loss) flat_ok flat_t
      (Float.of_int bytes /. flat_t /. 1024.);
    Printf.printf
      "tunnel: %d flow(s) x %d bytes over a %s outer connection on the same \
       channel:\n        exact=%b in %.2fs (%.0f KB/s aggregate), %d records \
       out / %d in\n"
      flows bytes
      (if plain then "sublayered" else "Rec-secured")
      exact tun_t
      (Float.of_int (flows * bytes) /. tun_t /. 1024.)
      fout fin;
    if not (flat_ok && exact) then exit 1;
    if verify then begin
      (* T1-T3 conformance at both recursion levels: every crossing was
         monitor-checked and none violated; the one registry holds both
         levels' sublayer scopes under distinct level tags. *)
      List.iter
        (fun v ->
          Printf.eprintf "conformance violation: %s\n" v;
          exit 1)
        (Monitor.Runtime.violations monitors);
      if Monitor.Runtime.checked monitors = 0 then begin
        Printf.eprintf "verify: no interface crossings checked\n";
        exit 1
      end;
      let scope_names =
        List.map Sublayer.Stats.scope_name (Sublayer.Stats.scopes stats)
      in
      let need = [ "rd"; "l1:rd"; "cc"; "l1:cc" ] in
      List.iter
        (fun s ->
          if not (List.mem s scope_names) then begin
            Printf.eprintf "verify: scope %S missing from the shared registry\n" s;
            exit 1
          end)
        need;
      Printf.printf
        "verify: %d crossings checked at both levels, 0 violations; per-level \
         scopes present (%s)\n"
        (Monitor.Runtime.checked monitors)
        (String.concat ", " need)
    end
  in
  let loss = Arg.(value & opt float 0.02 & info [ "loss" ] ~doc:"Channel loss probability.") in
  let bytes = Arg.(value & opt int 50_000 & info [ "bytes" ] ~doc:"Bytes per inner flow.") in
  let flows = Arg.(value & opt int 2 & info [ "flows" ] ~doc:"Concurrent inner connections.") in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Simulation seed.") in
  let plain =
    Arg.(value & flag
         & info [ "plain" ] ~doc:"Plain sublayered outer instead of Rec-secured.")
  in
  let verify =
    Arg.(value & flag
         & info [ "verify" ]
             ~doc:"Check T1-T3 conformance monitors and per-level scopes; \
                   nonzero exit on any violation.")
  in
  Cmd.v
    (Cmd.info "tunnel"
       ~doc:"Recursive sublayering (E28): inner stacks over a tunneled outer \
             connection, vs the flat stack.")
    Term.(const run $ loss $ bytes $ flows $ seed $ plain $ verify)

let () =
  let doc = "sublayered-protocols laboratory (HotNets '24 reproduction)" in
  exit (Cmd.eval (Cmd.group (Cmd.info "sublayer-lab" ~doc)
                    [ tcp_cmd; route_cmd; stuffing_cmd; search_cmd; mcheck_cmd;
                      stats_cmd; trace_cmd; scale_cmd; shard_cmd; top_cmd;
                      tunnel_cmd ]))
