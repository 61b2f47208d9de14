(** Per-sublayer observability: counters, gauges and log₂ histograms.

    The paper's T3 test says each sublayer owns separate state and
    mechanisms invisible to its neighbours, which makes the sublayer the
    natural unit of observability too.  Every machine registers a named
    {!scope} (one per sublayer: ["arq"], ["cm"], ["rd"], ...) holding its
    own instruments; nothing is shared across scopes.

    Design constraints, in order:
    - the hot path ([incr]/[add]/[set]/[observe]) is plain stores: no
      allocation, no atomic load;
    - there is no switch: a run that wants no report passes no
      registry, and its machines count into {!unregistered} scopes
      nobody enumerates;
    - names are stable strings following the [sublayer.counter] scheme,
      so reports from different stacks line up column-for-column.

    Instruments are find-or-create by name: asking a scope twice for the
    same counter returns the same cell, so several connections on one
    host can aggregate into one registry safely. *)

type counter
(** Monotonic event count. *)

type gauge
(** Last-set instantaneous value (e.g. window size). *)

type histogram
(** Fixed log₂-bucketed distribution of non-negative integers. *)

type scope
(** A named bundle of instruments owned by one sublayer machine. *)

type registry
(** A named collection of scopes, typically one per host/endpoint. *)

(** {1 Registries and scopes} *)

val create : ?label:string -> unit -> registry
val label : registry -> string

val scope : registry -> string -> scope
(** Find-or-create the scope named [name] in the registry. *)

val unregistered : string -> scope
(** A free-standing scope attached to no registry.  Machines default to
    this when the caller does not care about reports; the instruments
    still count, they are just not enumerable. *)

val scope_name : scope -> string
val scopes : registry -> scope list
(** Sorted by name. *)

(** {1 Instruments} *)

val counter : scope -> string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val gauge : scope -> string -> gauge
val set : gauge -> int -> unit
val gauge_value : gauge -> int

val histogram : scope -> string -> histogram
val observe : histogram -> int -> unit
val hist_count : histogram -> int
val hist_sum : histogram -> int

val hist_buckets : histogram -> (int * int) list
(** Non-empty buckets as [(lower_bound, count)]; bucket [b] covers
    values [v] with [2^b <= v < 2^(b+1)] (bucket 0 also holds [v <= 1]). *)

(** {1 Per-scope memos}

    A sublayer resolves its instruments into a record of its own (its
    counters, say) when it sets a connection up. Every connection on one
    scope would build the same record from the same cells, so the record
    is built once per scope and kept there. *)

type 'a memo
(** A typed key naming one kind of record and how to build it. *)

val memo : (scope -> 'a) -> 'a memo
(** [memo build] is a fresh key; make it once, at module
    initialisation. [build] should only look instruments up. *)

val memoised : 'a memo -> scope -> 'a
(** [memoised m s] is the value [m]'s builder made for [s]: built on the
    first call, the physically same value on every later call, for any
    number of connections. Distinct scopes keep distinct values, so two
    registries, two recursion levels, or two scopes from {!unregistered}
    never share one. Publication is domain-safe: scopes keep their memos
    in an [Atomic.t] and publish with a compare-and-set, so when two
    domains build at once both get the value published first (the
    instruments a builder looks up are, as ever, one domain's: registries
    are per shard). A hit allocates nothing. *)

(** {1 Snapshots and reports} *)

type snapshot = (string * int) list
(** Flat, name-sorted [("scope.instrument", value)] pairs.  Histograms
    contribute [name.count] and [name.sum] entries.  Plain data: safe to
    compare structurally for reproducibility checks. *)

val snapshot : registry -> snapshot

val snapshot_counters : registry -> snapshot
(** Monotone instruments only (counters plus histogram [count]/[sum]) —
    the part a time-series sampler deltas per tick. *)

val snapshot_gauges : registry -> snapshot
(** Gauges only — sampled raw per tick. *)

val telemetry_source : Sim.Telemetry.t -> name:string -> registry -> unit
(** Register this registry with a telemetry instance: counters (and
    histogram [count]/[sum]) delta'd per sample on the deterministic
    half; gauges raw on the nondeterministic half (they are
    last-write-wins scalars, so per-shard readings don't sum to the
    shared-registry reading).  Keys are prefixed ["<name>."].
    Idempotent per (registry, telemetry) pair: the first call registers,
    later calls are no-ops — hosts sharing one registry can all call it
    without double-counting. *)

val delta : before:snapshot -> after:snapshot -> snapshot
(** Entry-wise [after - before], dropping zero deltas.  Names present
    only in [after] count from 0. *)

val pp_snapshot : Format.formatter -> snapshot -> unit
(** Aligned text report, one [scope.instrument  value] line per entry. *)

val pp : Format.formatter -> registry -> unit

val snapshot_to_json : snapshot -> string
(** Compact JSON object [{"scope.instrument": value, ...}]. *)

val to_json : registry -> string
(** [{"label": ..., "stats": {...}}] for the whole registry. *)
