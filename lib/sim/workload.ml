(* Many-flow workload driver: stagger thousands of flow launches over
   virtual time and soak the engine until every flow reports exact
   delivery. Like [Soak], this module is stack-agnostic — the flows are
   reached only through the [ops] closures, so the transport fabric (or
   anything else) can sit on the other side without sim depending on it. *)

type ops = {
  launch : int -> unit;
  flow_finished : int -> bool;
  flow_exact : int -> bool;
}

type report = {
  wname : string;
  flows : int;
  launched : int;
  exact : int;
  live_hwm : int;
  soak : Soak.report;
}

let ok r = Soak.ok r.soak && r.launched = r.flows && r.exact = r.flows

let pp_report ppf r =
  Format.fprintf ppf "%s: %d/%d flows exact (%d launched), live hwm %d | %a"
    r.wname r.exact r.flows r.launched r.live_hwm Soak.pp_report r.soak

(* The one launch loop, over a single engine or a shard group's. Flow
   [i]'s launch event is scheduled on [engines.(site i)], the engine that
   owns its client host, and the soak advances them all through
   [driver]. Each engine counts its launches in its own cell, written
   only by its own domain and summed after the run; the ["live"] sample
   is the driver's pending total, so a one-shard report is structurally
   identical to a multi-shard one. A launch event captures only its
   engine's cell, [ops] and [i]: each word more is one per flow. *)
let launch_and_soak ~engines ~site ~driver ?(spacing = 0.01) ?(step = 0.5)
    ?(until = 600.) ?invariant ?tracer ?verdicts ?telemetry ?on_slice ~name
    ~flows ops =
  if flows < 0 then invalid_arg "Workload.run: negative flow count";
  let launched = Array.map (fun _ -> ref 0) engines in
  let base = driver.Soak.d_now () in
  for i = 0 to flows - 1 do
    let s = site i in
    if s < 0 || s >= Array.length engines then
      invalid_arg "Workload.run_sharded: launch_site out of range";
    let n = launched.(s) in
    ignore
      (Engine.at engines.(s) ~time:(base +. (float_of_int i *. spacing)) (fun () ->
           incr n;
           ops.launch i))
  done;
  (* [flow_finished] is stable once true, so one monotone pointer
     suffices — the finished check stays O(1) amortised over the whole
     run instead of rescanning every flow each slice. *)
  let done_upto = ref 0 in
  let finished () =
    while !done_upto < flows && ops.flow_finished !done_upto do
      incr done_upto
    done;
    !done_upto = flows
  in
  let soak =
    Soak.run_driver ~step ~until ?invariant ?tracer ?verdicts ?telemetry
      ?on_slice ~sample:(fun () -> [ ("live", driver.d_pending ()) ]) ~name
      ~driver ~finished ()
  in
  let exact = ref 0 in
  for i = 0 to flows - 1 do
    if ops.flow_exact i then incr exact
  done;
  let live_hwm =
    List.fold_left
      (fun acc (_, kvs) ->
        match List.assoc_opt "live" kvs with Some v -> max acc v | None -> acc)
      0 soak.Soak.samples
  in
  let launched = Array.fold_left (fun acc n -> acc + !n) 0 launched in
  { wname = name; flows; launched; exact = !exact; live_hwm; soak }

let run ?spacing ?step ?until ?invariant ?tracer ?verdicts ?telemetry ?on_slice
    ~name ~engine ~flows ops =
  launch_and_soak ~engines:[| engine |] ~site:(fun _ -> 0)
    ~driver:(Soak.engine_driver engine) ?spacing ?step ?until ?invariant ?tracer
    ?verdicts ?telemetry ?on_slice ~name ~flows ops

let run_sharded ?spacing ?step ?until ?invariant ?tracer ?verdicts ?telemetry
    ?on_slice ~name ~shard ~launch_site ~flows ops =
  launch_and_soak
    ~engines:(Array.init (Shard.shards shard) (Shard.engine shard))
    ~site:launch_site ~driver:(Soak.shard_driver shard) ?spacing ?step ?until
    ?invariant ?tracer ?verdicts ?telemetry ?on_slice ~name ~flows ops
