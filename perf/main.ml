(* The repository benchmark; perf/README.md describes what it measures.

     dune exec perf/main.exe -- --seed 1
         every workload, each in its own child process: a warm-up rep,
         5 untraced reps (medians give the end-to-end metrics) then 1
         traced rep (the per-layer metrics); records land in
         _bench_out/perf/.
     dune exec perf/main.exe -- --workload W --seed N --seconds S --trace 0|1
         one workload in this process, repeating untraced reps for at
         least S seconds; the last line of stdout is one JSON object
         with the end-to-end (--trace 0) or per-layer (--trace 1) metrics.
     dune exec perf/main.exe -- --compare BASE.json NEW.json
         verdicts per workload and end-to-end metric between two ledgers
         (files of result records, one per line).
     dune exec perf/main.exe -- --smoke
         every workload at about 1/20 size; checks delivery, the
         transparency gate and that the metrics BENCHMARK.json declares
         are the ones produced, with the same units. *)

module W = Workloads

(* The end-to-end metrics BENCHMARK.json gates. [fct_mean_ms] runs on
   the virtual clock. *)
let e2e_units =
  [ ("goodput_MBps", "MB/s"); ("events_per_s", "1/s"); ("setup_s", "s");
    ("peak_heap_MB", "MB"); ("minor_words_per_pdu", "words");
    ("copied_bytes_per_pdu", "B"); ("fct_mean_ms", "ms") ]

(* Reported next to them but not gated. With a fixed 20 ms delay every
   flow that loses nothing finishes in the same virtual time, so on bulk
   and short the median (and the p99, set by one retransmission timeout)
   read the same on every seed. Launches are open loop, so on bulk and
   short [vgoodput_KBps] is the offered load plus the last flows' tail.
   [fail_ratio] is 0 on every accepted run. *)
let info_units =
  [ ("vgoodput_KBps", "KB/s"); ("fct_p50_ms", "ms"); ("fct_p99_ms", "ms"); ("fail_ratio", "ratio");
    ("machine_speed", "ratio") ]

(* Computed from the virtual clock and counts only: any change between
   two commits at the same seed is real. *)
let deterministic = [ "minor_words_per_pdu"; "copied_bytes_per_pdu"; "fct_mean_ms" ]

let layer_unit name =
  let suffix s = String.ends_with ~suffix:s name in
  if suffix ".ns_per_pdu" then "ns"
  else if suffix ".words_per_pdu" then "words"
  else if suffix "share" || suffix "ratio" || suffix "overhead" then "ratio"
  else if name = "pool.hwm" then "slots"
  else "count"

let sorted_array xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted_array xs in
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Python's [statistics.quantiles(xs, n=4)] (the exclusive method). *)
let quartiles xs =
  let a = sorted_array xs in
  let ld = Array.length a in
  if ld < 2 then
    let v = if ld = 1 then a.(0) else 0. in
    (v, v)
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)

(* Nearest rank. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then 0. else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let finite_sorted fct = sorted_array (List.filter Float.is_finite (Array.to_list fct))

let pdus (w : W.t) (r : W.rep) = float_of_int (max 1 (W.pdus_of r.snapshot w.pdu))

(* --- machine speed --------------------------------------------------------

   The speed of a shared virtual machine drifts by about 10 % over tens of
   seconds (other tenants, clock frequency), and every wall-clock number
   drifts with it. A fixed kernel that uses no library code runs right
   before and right after every rep; the rep's wall times are multiplied
   by its [speed], [kernel_reference_s] over the kernel's mean time, so
   they read as they would at the reference speed. The kernel mixes
   integer work, hashing and short-lived allocation like the workloads do.
   [machine_speed] reports the median factor, so a raw time is the scaled
   one divided by it. *)

let kernel_reference_s = 0.0095

let kernel_table = Array.make 4096 0

let kernel () =
  let t0 = Timing.now_ns () in
  let acc = ref 0 in
  for i = 0 to 2_000_000 do
    acc := ((!acc * 31) + i) land 0xFFFFFF
  done;
  for i = 0 to 599_999 do
    let j = Hashtbl.hash (i * 7919) land 4095 in
    kernel_table.(j) <- kernel_table.(j) + i
  done;
  (* The lists die young, so the kernel leaves the major heap, and with
     it [peak_heap_MB], alone. *)
  for _ = 1 to 300 do
    acc := !acc + List.fold_left ( + ) 0 (List.rev (List.init 1_000 (fun i -> i + !acc)))
  done;
  ignore (Sys.opaque_identity !acc);
  W.secs_since t0

let rep_e2e w ((r : W.rep), speed) =
  let per_pdu x = float_of_int x /. pdus w r in
  let fct = finite_sorted r.fct in
  let n = Array.length fct in
  [ ("goodput_MBps", float_of_int r.payload /. (r.run_s *. speed) /. 1e6);
    ("events_per_s", float_of_int r.events /. (r.run_s *. speed));
    ("setup_s", r.setup_s *. speed);
    ("minor_words_per_pdu", per_pdu r.minor_words);
    ("copied_bytes_per_pdu", per_pdu r.copied);
    ("vgoodput_KBps", float_of_int r.payload /. Float.max r.active_vtime 1e-9 /. 1e3);
    ("fct_mean_ms", if n = 0 then 0. else 1e3 *. Array.fold_left ( +. ) 0. fct /. float_of_int n);
    ("fct_p50_ms", 1e3 *. percentile fct 0.50);
    ("fct_p99_ms", 1e3 *. percentile fct 0.99);
    ("fail_ratio", float_of_int (r.attempted - r.exact) /. float_of_int (max 1 r.attempted));
    ("machine_speed", speed) ]

let ratio snapshot num den =
  let n = W.pdus_of snapshot num and d = W.pdus_of snapshot den in
  if d = 0 then 0. else float_of_int n /. float_of_int d

(* Self time of each layer in the traced rep, the composed stacks'
   routing ([stack]), everything outside any stack ([outside]), queues,
   wasted work and what tracing itself cost. *)
let layer_metrics w ((r : W.rep), speed) ~untraced_run_s =
  let p = pdus w r and wall = r.run_s *. 1e9 in
  let per x = float_of_int x /. p in
  let ns x = x *. speed /. p in
  let layer i =
    let n = Timing.name_of i in
    [ (n ^ ".calls_per_pdu", per Timing.calls.(i));
      (n ^ ".ns_per_pdu", ns (float_of_int Timing.self_ns.(i)));
      (n ^ ".words_per_pdu", per Timing.self_words.(i));
      (n ^ ".share", float_of_int Timing.self_ns.(i) /. wall) ]
  in
  let outside = wall -. float_of_int !Timing.top_ns in
  let s = r.snapshot in
  List.concat_map layer (List.init (Array.length Timing.layers) Fun.id)
  @ [ ("stack.ns_per_pdu", ns (float_of_int Timing.self_ns.(Timing.stack)));
      ("stack.share", float_of_int Timing.self_ns.(Timing.stack) /. wall);
      ("outside.ns_per_pdu", ns outside);
      ("outside.share", outside /. wall);
      ("engine.events_per_pdu", per r.events);
      ("engine.live_hwm", float_of_int r.live_hwm);
      ("pool.hwm", float_of_int r.pool_hwm);
      ("pool.overruns", float_of_int r.pool_overruns);
      ("rd.retx_ratio", ratio s "rd.retransmits" "rd.segments_sent");
      ("l1_rd.retx_ratio", ratio s "l1:rd.retransmits" "l1:rd.segments_sent");
      ("cm.handshake_retx_ratio", ratio s "cm.handshake_retx" "cm.established");
      ("arq.retx_ratio", ratio s "arq.retransmissions" "arq.data_sent");
      ( "detector.corrupt_ratio",
        let c = W.pdus_of s "detector.frames_corrupt" in
        let v = W.pdus_of s "detector.frames_verified" in
        if c + v = 0 then 0. else float_of_int c /. float_of_int (c + v) );
      ("trace.overhead", r.run_s *. speed /. untraced_run_s) ]

type result = {
  w : W.t;
  seed : int;
  reps : (W.rep * float) list;  (** with each rep's machine speed *)
  e2e : (string * float) list;  (** [e2e_units] then [info_units] *)
  layers : (string * float) list;  (** empty without a traced rep *)
  attempted : int;
  failed : int;
  fct_samples : int;
}

exception Gate of string

(* One warm-up rep (unless [smoke]), which grows the heap to its working
   size and is left out of the medians; then untraced reps until at least
   [min_reps] ran and [seconds] passed; then the traced rep. Every rep
   must reproduce the first one's fingerprint: untraced reps prove the
   run is deterministic, the traced rep that the timed stacks behave
   exactly like the library's. *)
let run_workload ~smoke ~min_reps ~seconds ~trace ~seed (w : W.t) =
  let rep timed =
    Gc.full_major ();
    let k0 = kernel () in
    let r = W.rep ~smoke w ~timed ~seed in
    (r, 2. *. kernel_reference_s /. (k0 +. kernel ()))
  in
  let warmup = if smoke then [] else [ rep false ] in
  let t0 = Timing.now_ns () in
  let rec loop acc k =
    if k >= min_reps && W.secs_since t0 >= seconds then List.rev acc
    else loop (rep false :: acc) (k + 1)
  in
  let reps = loop [] 0 in
  let peak_heap_mb = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6 in
  let traced = if trace then Some (rep true) else None in
  let first = fst (List.hd reps) in
  let check what ((r : W.rep), _) =
    if compare (W.fingerprint r) (W.fingerprint first) <> 0 then
      raise
        (Gate
           (Printf.sprintf
              "%s: %s rep diverged from the first (events %d vs %d, vtime %.6f vs %.6f, exact %d vs %d%s)"
              w.name what r.events first.events r.vtime first.vtime r.exact first.exact
              (if r.snapshot = first.snapshot then "" else ", stats snapshots differ")))
  in
  List.iter (check "an untraced") (warmup @ reps);
  Option.iter (check "the traced") traced;
  let per_rep = List.map (rep_e2e w) reps in
  let e2e =
    List.map
      (fun (name, _) ->
        if name = "peak_heap_MB" then (name, peak_heap_mb)
        else (name, median (List.map (List.assoc name) per_rep)))
      (e2e_units @ info_units)
  in
  let untraced_run_s = median (List.map (fun ((r : W.rep), speed) -> r.run_s *. speed) reps) in
  let all = List.map fst (warmup @ reps @ Option.to_list traced) in
  let attempted = List.fold_left (fun acc (r : W.rep) -> acc + r.attempted) 0 all in
  let exact = List.fold_left (fun acc (r : W.rep) -> acc + r.exact) 0 all in
  {
    w; seed; reps; e2e;
    layers =
      (match traced with Some r -> layer_metrics w r ~untraced_run_s | None -> []);
    attempted;
    failed = attempted - exact;
    fct_samples = Array.length (finite_sorted first.fct);
  }

let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let metrics_json units kvs =
  "{"
  ^ String.concat ","
      (List.map
         (fun (k, v) -> Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" k (num v) (units k))
         kvs)
  ^ "}"

let e2e_unit k = List.assoc k (e2e_units @ info_units)

let print_human res =
  let line k v u extra = Printf.printf "%-9s %-30s %18.6f %-6s%s\n" res.w.name k v u extra in
  List.iter
    (fun (k, v) ->
      let extra =
        if k = "fct_p99_ms" then
          Printf.sprintf "  (%d samples, %d beyond p99)" res.fct_samples
            (res.fct_samples - int_of_float (Float.ceil (0.99 *. float_of_int res.fct_samples)))
        else ""
      in
      line k v (e2e_unit k) extra)
    res.e2e;
  List.iter (fun (k, v) -> line k v (layer_unit k) "") res.layers

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let out_dir = Filename.concat "_bench_out" "perf"

(* One line, so records from many invocations append into a ledger. *)
let record_json res =
  Printf.sprintf
    "{\"workload\":%S,\"seed\":%d,\"reps\":%d,\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"fct_samples\":%d,\"end_to_end\":%s,\"per_layer\":%s}"
    res.w.name res.seed (List.length res.reps) (res.failed = 0) res.attempted res.failed
    res.fct_samples (metrics_json e2e_unit res.e2e) (metrics_json layer_unit res.layers)

let write_outputs res =
  mkdir_p out_dir;
  Out_channel.with_open_bin
    (Filename.concat out_dir (res.w.name ^ ".json"))
    (fun oc -> output_string oc (record_json res ^ "\n"));
  if res.layers <> [] then Timing.write_chrome (Filename.concat out_dir (res.w.name ^ ".trace.json"))

(* --- one workload, one JSON line ---------------------------------------- *)

let run_one w ~seed ~seconds ~trace =
  match run_workload ~smoke:false ~min_reps:5 ~seconds ~trace ~seed w with
  | exception Gate msg ->
      prerr_endline ("perf: transparency gate failed: " ^ msg);
      exit 1
  | res ->
      print_human res;
      write_outputs res;
      let metrics =
        if trace then metrics_json layer_unit res.layers
        else
          metrics_json e2e_unit (List.filter (fun (k, _) -> List.mem_assoc k e2e_units) res.e2e)
      in
      Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":%s}\n%!"
        (res.failed = 0) res.attempted res.failed metrics;
      if res.failed > 0 then exit 1

(* --- every workload, each in a child process --------------------------- *)

let run_all ~seed ~seconds =
  let failures =
    List.filter
      (fun (w : W.t) ->
        let args =
          [| Sys.executable_name; "--workload"; w.name; "--seed"; string_of_int seed;
             "--seconds"; Printf.sprintf "%g" seconds; "--trace"; "1" |]
        in
        flush stdout;
        let pid = Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout Unix.stderr in
        match snd (Unix.waitpid [] pid) with Unix.WEXITED 0 -> false | _ -> true)
      W.all
  in
  List.iter (fun (w : W.t) -> Printf.printf "perf: workload %s FAILED\n" w.name) failures;
  if failures <> [] then exit 1

(* --- BENCHMARK.json ---------------------------------------------------- *)

let entries key bench = Json.to_list (Option.value (Json.member key bench) ~default:(Json.Arr []))

let field k m = Option.bind (Json.member k m) Json.to_string

let names key bench = List.filter_map (field "name") (entries key bench)

(* (name, unit) of every metric BENCHMARK.json declares under [key]. *)
let declared key bench =
  List.filter_map
    (fun m -> match (field "name" m, field "unit" m) with Some n, Some u -> Some (n, u) | _ -> None)
    (entries key bench)

let bounds bench =
  List.filter_map
    (fun m ->
      match (Option.bind (Json.member "name" m) Json.to_string,
             Option.bind (Json.member "bound" m) Json.to_float,
             Option.bind (Json.member "better" m) Json.to_string) with
      | Some n, Some b, Some better -> Some (n, (b, better = "higher"))
      | _ -> None)
    (entries "end_to_end" bench)

(* --- smoke ------------------------------------------------------------- *)

let smoke ~bench =
  let bench = Json.parse (Json.read_file bench) in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let ours = List.map (fun (w : W.t) -> w.name) W.all in
  if List.sort compare (names "workloads" bench) <> List.sort compare ours then
    problem "BENCHMARK.json workloads differ from %s" (String.concat " " ours);
  if List.sort compare (declared "end_to_end" bench) <> List.sort compare e2e_units then
    problem "BENCHMARK.json end_to_end differs from the gated metrics %s"
      (String.concat " " (List.map (fun (n, u) -> n ^ ":" ^ u) e2e_units));
  List.iter
    (fun (w : W.t) ->
      match run_workload ~smoke:true ~min_reps:1 ~seconds:0. ~trace:true ~seed:1 w with
      | exception Gate msg -> problem "%s" msg
      | res ->
          if res.failed > 0 then problem "%s: %d of %d flows not delivered exactly" w.name res.failed res.attempted;
          List.iter
            (fun (n, u) ->
              if not (List.mem_assoc n res.layers) then problem "%s: no metric %s" w.name n
              else if layer_unit n <> u then
                problem "%s: BENCHMARK.json gives %s the unit %s, the program %s" w.name n u (layer_unit n))
            (declared "per_layer" bench);
          let shares =
            List.fold_left
              (fun acc (k, v) -> if String.ends_with ~suffix:".share" k then acc +. v else acc)
              0. res.layers
          in
          if Float.abs (shares -. 1.) > 0.01 then problem "%s: shares sum to %.4f" w.name shares;
          Printf.printf "smoke %-9s %d flows exact, %d events, shares sum %.4f\n%!" w.name
            (res.attempted - res.failed) (fst (List.hd res.reps)).events shares)
    W.all;
  List.iter (Printf.printf "smoke FAILED: %s\n") (List.rev !problems);
  if !problems <> [] then exit 1

(* --- compare ----------------------------------------------------------- *)

let read_ledger path =
  List.filter_map
    (fun line -> if String.trim line = "" then None else Some (Json.parse line))
    (String.split_on_char '\n' (Json.read_file path))

let values ledger workload section metric =
  List.filter_map
    (fun r ->
      if Option.bind (Json.member "workload" r) Json.to_string = Some workload then
        Option.bind (Json.member section r) (fun s ->
            Option.bind (Json.member metric s) (fun m -> Option.bind (Json.member "value" m) Json.to_float))
      else None)
    ledger

let compare_ledgers ~bench base_path new_path =
  let bounds = bounds (Json.parse (Json.read_file bench)) in
  let base = read_ledger base_path and next = read_ledger new_path in
  let worse = ref 0 in
  let summary xs =
    let q1, q3 = quartiles xs in
    Printf.sprintf "%14.6g [%.6g %.6g]" (median xs) q1 q3
  in
  List.iter
    (fun (w : W.t) ->
      Printf.printf "== %s\n%-24s %36s %36s  verdict\n" w.name "metric" "base median [q1 q3]"
        "new median [q1 q3]";
      List.iter
        (fun (name, (bound, higher)) ->
          let b = values base w.name "end_to_end" name and n = values next w.name "end_to_end" name in
          if b <> [] && n <> [] then begin
            let mb = median b and mn = median n in
            (* Positive when the new median is worse. *)
            let loss = (if higher then mb -. mn else mn -. mb) /. Float.abs mb in
            let spread xs = let q1, q3 = quartiles xs in (q3 -. q1) /. Float.abs (median xs) in
            let all_better =
              List.for_all (fun y -> List.for_all (fun x -> if higher then y > x else y < x) b) n
            in
            let verdict =
              if List.mem name deterministic then
                if mn = mb then "unchanged" else if loss > 0. then "worse" else "better"
              else if Float.max (spread b) (spread n) > bound then
                if all_better then "better" else "unresolved"
              else if loss > bound then "worse"
              else if -.loss > bound then "better"
              else "unchanged"
            in
            if verdict = "worse" then incr worse;
            Printf.printf "%-24s %36s %36s  %s\n" name (summary b) (summary n) verdict
          end)
        bounds;
      (* Everything else the records hold, side by side and not gated. *)
      List.iter
        (fun section ->
          let names =
            List.sort_uniq compare
              (List.concat_map
                 (fun r ->
                   match (Json.member "workload" r, Json.member section r) with
                   | Some (Json.Str n), Some (Json.Obj kvs) when n = w.name ->
                       List.filter (fun k -> not (List.mem_assoc k bounds)) (List.map fst kvs)
                   | _ -> [])
                 (base @ next))
          in
          List.iter
            (fun name ->
              let b = values base w.name section name and n = values next w.name section name in
              Printf.printf "%-24s %14.6g %14.6g\n" name (median b) (median n))
            names)
        [ "end_to_end"; "per_layer" ])
    W.all;
  if !worse > 0 then exit 1

(* --- command line ------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 0. and trace = ref 1 in
  let smoke_mode = ref false and bench = ref "BENCHMARK.json" in
  let base = ref "" and next = ref "" in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME run one workload in this process");
      ("--seed", Arg.Set_int seed, "N seed for engines and payloads (default 1)");
      ("--seconds", Arg.Set_float seconds, "S keep repeating untraced reps for S seconds (at least 5 reps)");
      ("--trace", Arg.Set_int trace, "0|1 add the traced rep and report per-layer metrics (default 1)");
      ("--smoke", Arg.Set smoke_mode, " every workload at about 1/20 size, checked");
      ("--compare", Arg.Tuple [ Arg.Set_string base; Arg.Set_string next ], "BASE NEW compare two ledgers");
      ("--benchmark", Arg.Set_string bench, "PATH BENCHMARK.json (default ./BENCHMARK.json)") ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perf [options]";
  try
    if !base <> "" then compare_ledgers ~bench:!bench !base !next
    else if !smoke_mode then smoke ~bench:!bench
    else if !workload <> "" then
      match W.find !workload with
      | Some w -> run_one w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
      | None ->
          prerr_endline ("perf: unknown workload " ^ !workload);
          exit 2
    else run_all ~seed:!seed ~seconds:!seconds
  with Invalid_argument msg | Failure msg | Sys_error msg | Json.Error msg ->
    prerr_endline ("perf: " ^ msg);
    exit 2
