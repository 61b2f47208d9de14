(** Deterministic discrete-event simulation engine.

    All protocol experiments in this repository run on this engine: time is
    virtual, events fire in (time, insertion-order) order, and all
    randomness comes from the engine's seeded {!Bitkit.Rng}, so every run is
    exactly reproducible. *)

type t

type handle
(** A scheduled event, usable for cancellation. *)

type backend = [ `Heap | `Wheel ]
(** Event-queue implementation: the hierarchical timing wheel (default —
    O(1) schedule/cancel near the horizon) or one binary heap
    ({!Wheel.Eheap}, whose entries' keys sit in flat arrays beside them),
    kept as the reference the equivalence property test runs against.
    Both fire the exact same (time, insertion-seq) stream, and neither
    allocates to dequeue an event. *)

val create : ?seed:int -> ?backend:backend -> unit -> t
(** [create ~seed ()] makes an engine with virtual time 0.
    [backend] defaults to [`Wheel]. *)

val backend : t -> backend

val id : t -> int
(** A number no other engine made in this process has: what a table
    keyed by engine holds instead of the engine, so it keeps no engine
    alive. *)

val now : t -> float
(** Current virtual time in seconds. *)

val rng : t -> Bitkit.Rng.t
(** The engine's random stream. *)

val schedule : t -> after:float -> (unit -> unit) -> handle
(** [schedule t ~after f] runs [f] at time [now t +. after].
    [after] must be non-negative. Ties fire in insertion order. *)

val at : t -> time:float -> (unit -> unit) -> handle
(** [at t ~time f] schedules at an absolute virtual time (>= now). *)

val cancel : handle -> unit
(** Cancel a scheduled event; cancelling twice (or after it fired) is a
    no-op. *)

val cancelled : handle -> bool

val next_time : t -> float option
(** Timestamp of the earliest live event, left queued ([None] when the
    queue is empty). The shard round protocol uses this to compute the
    global safe window. *)

val step : t -> bool
(** Fire the next event. Returns [false] if the queue was empty. *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** Drain the event queue, stopping early when virtual time would exceed
    [until] or after [max_events] events. *)

val pending : t -> int
(** Number of scheduled (uncancelled) events, from the O(1) live
    counter — cheap enough to sample every soak slice. *)

val pending_scan : t -> int
(** The same count by scanning the whole queue, O(total). Kept as the
    audit the property tests cross-check the cancellation accounting
    against after randomized cancel storms. *)

val compactions : t -> int
(** How many times the queue compacted away cancelled entries. *)

val events_fired : t -> int
(** Total events executed so far (a cheap work measure). *)

val after_event : t -> (unit -> unit) -> unit
(** Register a hook to run after each fired event's closure returns —
    the quiescent point at which no action cascade is mid-apply, where
    buffer pools drain deferred slot releases. Hooks must not schedule
    events or draw randomness; they are bookkeeping only, so a run with
    hooks fires the identical (time, seq) stream as one without. *)
