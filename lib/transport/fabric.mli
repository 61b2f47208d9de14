(** N-host TCP fabric for the many-flow scale workload (E21).

    [hosts] {!Host}s share one virtual switch: each host owns an ingress
    {!Sim.Channel} built from [channel], and segments are forwarded to
    whichever host owns the destination port. Flow [f] runs from host
    [f mod hosts] to host [(f+1) mod hosts] on globally unique ports, so
    thousands of connections coexist without colliding.

    Use {!ops} to hand the fabric to {!Sim.Workload.run}. *)

type t

val create :
  Sim.Engine.t ->
  ?hosts:int ->
  ?config:Config.t ->
  ?factory:Host.factory ->
  ?stats:Sublayer.Stats.registry ->
  ?tracer:Sim.Tracer.t ->
  ?monitors:Monitor.Runtime.t ->
  ?telemetry:Sim.Telemetry.t ->
  ?pool:Bitkit.Pool.t ->
  ?seed:int ->
  ?link_faults:(int * int -> Sim.Faultplan.t option) ->
  channel:Sim.Channel.config ->
  flows:int ->
  bytes:int ->
  unit ->
  t
(** [create engine ~channel ~flows ~bytes ()] builds [hosts] (default 8)
    hosts and sets up [flows] listener/payload pairs of [bytes] seeded
    random bytes each ([seed] defaults to 7; payloads are deterministic
    in it). Nothing is connected until the workload launches a flow.

    Flow [f] serves on port [1024 + 2f] and connects from [1025 + 2f],
    and DM ports are 16-bit, so at most 32 256 flows fit: more raise
    [Invalid_argument] naming the limit.

    When [link_faults] is given, the fabric switches from one shared
    ingress channel per host to one channel per {e directed} host pair,
    and [link_faults (src, dst)] may return a {!Sim.Faultplan} applied to
    that link alone — partial partitions impair some host pairs while the
    rest of the fabric keeps running.

    When [telemetry] is given, the fabric registers its sampling sources
    on it: [fabric.*] (the shared [stats] registry), [engine.*] (events
    fired, live timers, pending events), [slice.copied_bytes],
    [tracer.dropped] and the [gc.*] source; the host endpoints install
    {!Sublayer.Alloc} cells.  Drive sampling from the soak loop
    ({!Sim.Soak.run_driver}'s [?telemetry]).

    When [pool] is given, every host's stacks emit and stage in its arena
    slots, the fabric's transmit closure recognises slot-backed segments
    ({!Bitkit.Pool.slot_of_slice}) and loans them to the wire channel for
    the flight, and deferred releases drain after every engine event.
    Loans never change the channels' draw sequence, so a pooled run is
    schedule-identical to an unpooled one. *)

val create_sharded :
  Sim.Shard.t ->
  ?hosts:int ->
  ?config:Config.t ->
  ?factory:Host.factory ->
  ?stats:Sublayer.Stats.registry array ->
  ?tracer:Sim.Tracer.t array ->
  ?monitors:Monitor.Runtime.t array ->
  ?telemetry:Sim.Telemetry.t array ->
  ?pools:Bitkit.Pool.t array ->
  ?seed:int ->
  ?link_faults:(int * int -> Sim.Faultplan.t option) ->
  channel:Sim.Channel.config ->
  flows:int ->
  bytes:int ->
  unit ->
  t
(** The fabric partitioned across a {!Sim.Shard} group: hosts are placed
    on shards in contiguous blocks, every directed host pair gets its own
    channel on the {e source} host's engine with a private per-link RNG
    stream (seeded by [(seed, src, dst)]), and cross-shard channels
    deliver through the shard conduits. Per-link streams make each
    link's impairment draws independent of global event interleave, so a
    run of this construction is bit-identical at every shard count —
    compare against [shards = 1], which runs the single engine directly.

    Requires [hosts >= shards], at most 32 256 flows (as {!create}) and
    the shard group's lookahead to be at most [channel.delay] (jitter,
    reordering, serialisation and fault plans only ever add latency, so
    the conduits' conservative promise holds).

    [stats] / [tracer] / [monitors] / [telemetry], when given, must hold
    one instance per shard — host [h] records into its shard's — and are
    merged after the run ({!Monitor.Runtime.merged_verdicts},
    {!Sim.Tracer.merged_chrome_json},
    {!Sim.Telemetry.merged_deterministic}). Each shard's telemetry
    instance registers the same source names as the serial fabric
    ([slice.copied_bytes] only on shard 0 — the counter is process
    global), so the pointwise sum of the per-shard deterministic series
    is comparable key-for-key with a single-engine run.

    [pools], when given, likewise holds one pool per shard: a pool is
    single-domain state, so host [h] emits from its shard's pool and the
    transmit closure loans a slot to the channel only when source and
    destination share a shard — a cross-shard send copies out of the
    arena before handing the segment to the conduit. *)

val launch_site : t -> int -> int
(** Shard owning flow [f]'s client host — where
    {!Sim.Workload.run_sharded} must schedule its launch. Always 0 for
    an unsharded fabric. *)

val host_shard : t -> int -> int
(** Shard owning host [h]. *)

val ops : t -> Sim.Workload.ops
(** Launch = connect + write the flow's payload + close; finished = the
    server received the full length and the client's stream drained;
    exact = the received bytes equal the payload. *)

val hosts : t -> Host.t array

val pool_stats : t -> (string * int) list
(** The fabric's pool counters ({!Bitkit.Pool.stats}), summed across
    shards; [[]] when the fabric was built without pools. Report these
    next to ring-drop counts (e.g. via {!Sim.Workload.run}'s [?drops]). *)
