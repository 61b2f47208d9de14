(** Chaos soak harness.

    Drives a seeded simulation through a fault schedule in bounded slices
    of virtual time, checking caller-supplied safety invariants at every
    slice and liveness at the end. The harness is stack-agnostic: the
    protocol stacks under test (data link, routed network, transport) are
    reached only through closures, so one harness soaks them all.

    Determinism contract: a report is a pure function of (seed, scenario
    construction), so running the same scenario twice must produce equal
    reports — {!reproducible} asserts exactly that. *)

type report = {
  sname : string;
  vtime : float;        (** virtual time when the run ended *)
  events_fired : int;   (** engine events executed *)
  pending : int;        (** events still scheduled at the end *)
  finished : bool;      (** the [finished] predicate held before [until] *)
  violations : string list;
      (** invariant failures, oldest first, deduplicated *)
  samples : (float * (string * int) list) list;
      (** periodic samples [(vtime, snapshot)], oldest first: a
          ["pending"] entry, the driver's O(1) count of scheduled events
          (the leak telltale) *)
  flights : (string * string list) list;
      (** flight-recorder dumps, one [(violation, spans)] pair per
          distinct invariant violation up to [flight_cap], oldest
          violation first, spans oldest first (empty when no [tracer]
          was passed or no violation occurred) *)
  flight_cap : int;
      (** maximum number of dumps this run was allowed to capture; when
          [List.length flights = flight_cap], later violations went
          un-dumped (they are still in [violations]) *)
  verdicts : (string * int * int) list;
      (** per-sublayer conformance verdicts [(sublayer, checked,
          violated)] from the caller's [?verdicts] hook (typically
          [Monitor.Runtime.verdicts]), evaluated once when the run ends;
          empty when no hook was passed *)
  drops : (string * int) list;
      (** how much of the run's own observability was lost to bounded
          rings: [("tracer", n)] when a [tracer] was passed, one
          [("telemetry:<label>", n)] per telemetry instance, then
          whatever the [drops] hook returned. Zero entries are kept —
          "nothing dropped" is itself a result — but {!pp_report} only
          prints the non-zero ones. *)
}

val pp_report : Format.formatter -> report -> unit

val ok : report -> bool
(** Finished, no violations, and the engine quiesced ([pending = 0]). *)

type driver = {
  d_now : unit -> float;
  d_run : until:float -> unit;
  d_events : unit -> int;
  d_pending : unit -> int;
}
(** What the soak loop needs from whatever advances virtual time — a
    single {!Engine} or a {!Shard} group. *)

val engine_driver : Engine.t -> driver
val shard_driver : Shard.t -> driver

val run :
  ?step:float ->
  ?until:float ->
  ?invariant:(unit -> string option) ->
  ?tracer:Tracer.t ->
  ?flight_cap:int ->
  ?verdicts:(unit -> (string * int * int) list) ->
  ?telemetry:Telemetry.t list ->
  ?on_slice:(float -> unit) ->
  ?drops:(unit -> (string * int) list) ->
  name:string ->
  driver:driver ->
  finished:(unit -> bool) ->
  unit ->
  report
(** [run ~name ~driver ~finished ()] advances [driver] (one engine or a
    shard group) in slices of [step] (default 0.5) virtual seconds until
    [finished ()] or virtual time [until] (default 120), evaluating
    [invariant] after every slice.
    A [Some msg] result is recorded as a violation (deduplicated); the
    run keeps driving, so every distinct failure the scenario produces is
    reported, not just the first.

    Once finished, the remaining queue is drained — timers a correct
    stack no longer needs — and the leftover [pending] count is
    reported.

    Every slice also lands a sample in the report's [samples], so a leak
    can be localised to the slice where the count began to climb.

    When [tracer] is given, the run doubles as a flight recorder: each
    distinct invariant violation freezes the last 32 spans into the
    report's [flights], up to [flight_cap] (default 8) dumps per run —
    preferring spans whose track appears in the violation message, so
    each dump follows the offending connection.

    [verdicts] is evaluated once, after the run (and quiesce drain)
    completes, and its result lands verbatim in the report — the hook for
    runtime protocol monitors to publish per-sublayer checked/violated
    counts next to the invariant sections. Reports stay structurally
    comparable, so the hook must be deterministic for {!reproducible}
    scenarios.

    [telemetry] instances are {!Telemetry.tick}ed at every slice
    boundary (and once more after the quiesce drain) at the current
    virtual time, so their sample timestamps are the soak's slice grid —
    pass every per-shard instance for a sharded run. [on_slice] fires at
    the same boundaries (live dashboards hook here). The soak's own
    [tracer]/[telemetry] rings surface their drop counts in the
    report's [drops], after which the [drops] hook may append
    scenario-specific ones. *)

val reproducible : (int -> report) -> seed:int -> bool
(** [reproducible scenario ~seed] runs [scenario seed] twice and checks
    the two reports are structurally equal (bit-reproducibility of the
    whole soak, E18's determinism criterion). *)
