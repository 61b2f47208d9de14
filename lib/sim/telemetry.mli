(** Continuous telemetry: bounded-ring time series over the simulation.

    One instance collects named {e sources} — closures returning flat
    [(key, value)] readings — and, on every {!tick} whose virtual
    timestamp has advanced by at least [interval] since the previous
    sample, records one {!sample}: the per-source {e deltas} of counter
    sources, the raw values of gauge sources, both split into a
    deterministic and a nondeterministic half.  Ticks are driven from
    slice boundaries of the soak loop (single engine) or from shard
    barriers (all domains joined), always in virtual time, so the
    deterministic half of a series is a pure function of (scenario,
    seed): summing per-shard instances pointwise ({!merged_deterministic})
    reproduces the single-engine series bit for bit.

    Keys containing [".gc."] or starting with ["gc."] (the
    {!Sublayer.Alloc} counters, [Gc.quick_stat] readings) are routed to
    the nondeterministic half automatically: real allocation differs
    across shard counts and machines even when the event schedule does
    not.

    Sampling only reads — it never schedules events or draws from any
    RNG — so telemetry-on and telemetry-off runs fire identical event
    schedules. *)

type sample = {
  ts : float;                   (** virtual time of the sample *)
  det : (string * int) list;    (** deterministic keys, name-sorted *)
  nondet : (string * int) list; (** gc/allocation keys, name-sorted *)
}

type t

val create : ?label:string -> ?capacity:int -> ?interval:float -> unit -> t
(** [capacity] bounds the ring (default 4096 samples; older samples are
    evicted and counted by {!dropped}).  [interval] (default [0.] =
    every tick) is the minimum virtual time between samples. *)

val label : t -> string
val interval : t -> float

(** {1 Sources}

    Readings must be cheap and side-effect-free.  Counter sources are
    cumulative: each sample records the delta since the previous sample
    (first sample counts from the values at registration).  Gauge
    sources are instantaneous: each sample records them as read.  Keys
    are prefixed ["<source>.<key>"].  [det:false] routes the whole
    source to the nondeterministic half (for readings that are stable
    within one configuration but not across shard counts, like
    per-shard trace-ring drops); [gc] keys route there regardless. *)

val add_counters :
  t -> ?det:bool -> name:string -> (unit -> (string * int) list) -> unit

val add_gauges :
  t -> ?det:bool -> name:string -> (unit -> (string * int) list) -> unit

val add_gc : t -> unit
(** Built-in [Gc.quick_stat] source (nondeterministic): counter deltas
    [gc.minor_words], [gc.promoted_words], [gc.major_words],
    [gc.minor_collections], [gc.major_collections] and the gauge
    [gc.heap_words]. *)

(** {1 Sampling} *)

val tick : t -> now:float -> unit
(** Record a sample if [now] is at least [interval] past the previous
    sample's timestamp (always records the first time). *)

val sample_now : t -> now:float -> unit
(** Record a sample unconditionally (end-of-run flush). *)

val samples : t -> sample list
(** Retained samples, oldest first. *)

val last_sample : t -> sample option
val length : t -> int
val recorded : t -> int
(** Samples ever recorded (monotonic). *)

val dropped : t -> int
val clear : t -> unit
(** Forget retained samples and re-anchor counter baselines at the next
    reading; [recorded]/[dropped] reset. *)

val merged_deterministic : t list -> (float * (string * int) list) list
(** Pointwise sum of several instances' deterministic series (one per
    shard, all ticked at the same barrier times): samples are matched by
    rank, keys unioned, values summed, timestamps required equal.
    Raises [Invalid_argument] on mismatched sample counts or
    timestamps. *)

(** {1 Export} *)

val to_json : t -> string
(** [{"label":…,"interval":…,"dropped":…,"samples":[{"ts":…,
    "values":{…},"gc":{…}},…]}]. *)

val to_csv : t -> string
(** Long format, one reading per line: [ts,key,value] with a header —
    loads straight into any plotting tool. *)

val chrome_counter_events : ?pid:int -> t -> string list
(** Chrome [trace_event] counter-track records (["ph":"C"], microsecond
    timestamps, one event per sample per key, plus a [process_name]
    metadata record naming the track after {!label}) ready to splice
    into {!Tracer.to_chrome_json}'s [?extra] — the counters then render
    as tracks alongside the span trace in Perfetto. [pid] defaults to
    1000, past the tracer's track pids; pass distinct values to splice
    several instances. *)
