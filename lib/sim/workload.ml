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

(* [flow_finished] is stable once true, so one monotone pointer suffices
   — the finished check stays O(1) amortised over the whole run instead
   of rescanning every flow each slice. *)
let monotone_finished ops flows =
  let done_upto = ref 0 in
  fun () ->
    while !done_upto < flows && ops.flow_finished !done_upto do
      incr done_upto
    done;
    !done_upto = flows

let finish_report ~name ~flows ~launched ops soak =
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
  { wname = name; flows; launched; exact = !exact; live_hwm; soak }

let run ?(spacing = 0.01) ?(step = 0.5) ?(until = 600.) ?invariant ?tracer
    ?verdicts ?telemetry ?on_slice ~name ~engine ~flows ops =
  if flows < 0 then invalid_arg "Workload.run: negative flow count";
  let launched = ref 0 in
  let base = Engine.now engine in
  for i = 0 to flows - 1 do
    ignore
      (Engine.at engine ~time:(base +. (float_of_int i *. spacing)) (fun () ->
           incr launched;
           ops.launch i))
  done;
  let finished = monotone_finished ops flows in
  let sample () = [ ("live", Engine.live engine) ] in
  let soak =
    Soak.run ~step ~until ?invariant ?tracer ?verdicts ?telemetry
      ?on_slice ~sample ~name ~engine ~finished ()
  in
  finish_report ~name ~flows ~launched:!launched ops soak

(* The sharded variant: flow [i]'s launch event is scheduled on the shard
   that owns its client host ([launch_site i] — the fabric knows the
   placement), and the soak loop advances the whole shard group per
   slice. Launch counters are per-shard cells (each written only by its
   own domain) summed after the run; the ["live"] sample is the group
   total, so a [shards = 1] report is structurally identical to a
   multi-shard one. *)
let run_sharded ?(spacing = 0.01) ?(step = 0.5) ?(until = 600.) ?invariant
    ?tracer ?verdicts ?telemetry ?on_slice ~name ~shard
    ~launch_site ~flows ops =
  if flows < 0 then invalid_arg "Workload.run_sharded: negative flow count";
  let n = Shard.shards shard in
  let launched = Array.make n 0 in
  let base = Shard.now shard in
  for i = 0 to flows - 1 do
    let s = launch_site i in
    if s < 0 || s >= n then
      invalid_arg "Workload.run_sharded: launch_site out of range";
    ignore
      (Engine.at (Shard.engine shard s)
         ~time:(base +. (float_of_int i *. spacing))
         (fun () ->
           launched.(s) <- launched.(s) + 1;
           ops.launch i))
  done;
  let finished = monotone_finished ops flows in
  let sample () = [ ("live", Shard.pending shard) ] in
  let soak =
    Soak.run_driver ~step ~until ?invariant ?tracer ?verdicts
      ?telemetry ?on_slice ~sample ~name
      ~driver:(Soak.shard_driver shard) ~finished ()
  in
  finish_report ~name ~flows ~launched:(Array.fold_left ( + ) 0 launched) ops
    soak
