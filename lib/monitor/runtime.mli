(** Runtime conformance monitors.

    Each (connection, interface spec) pair gets one monitor {e instance}
    — the key is the same connection/track name the tracer uses, so a
    violation message names a track the {!Sim.Soak} flight recorder can
    follow. Instances are attached at stack construction (cold);
    {!observe} is the hot path: a table walk and integer mutations, and
    allocation only on the first violation of an instance (which also
    silences it, so one bug does not cascade into a report flood).

    A registry keeps no instance: it keeps one [checked]/[violated]
    tally per sublayer name, and an instance resolves the two tallies it
    charges at {!attach}. An instance is held only by the stack that
    attached it, so a retired connection's monitors become garbage with
    its stack.

    A monitor checks iff it was given: an endpoint built without a
    registry attaches no instance, and its probes are shared inert ones
    that never call into this module. *)

type t
(** A monitor registry (one per simulation, shared by every endpoint). *)

val create : ?label:string -> unit -> t
val label : t -> string

type instance

val attach : t -> key:string -> Spec.t -> instance
(** [attach t ~key spec] creates a fresh monitor for one interface of the
    connection/endpoint named [key]. *)

val observe : instance -> int -> a:int -> b:int -> unit
(** [observe inst mid ~a ~b] feeds one interface crossing to the monitor
    ([mid] from {!Spec.msg_id}, resolved at attach time). On violation the
    instance records a message naming the guilty sublayer, direction,
    spec state and offending message, then goes dead. *)

val dead : instance -> bool

(** {2 Verdicts} *)

val violations : t -> string list
(** All violation messages, oldest first. *)

val violation_count : t -> int

val next_violation : t -> string option
(** Drain the oldest not-yet-reported violation — the {!Sim.Soak}
    [invariant] hook: each violation surfaces exactly once, in the
    order they happened. *)

val invariant : t -> unit -> string option
(** [invariant t] is [fun () -> next_violation t]. *)

val checked : t -> int
(** Total events checked by every instance ever attached. *)

val verdicts : t -> (string * int * int) list
(** Per-sublayer [(name, checked, violated)] counts, name-sorted: each
    observed event is attributed to the sublayer that sent it ([Down] →
    the spec's upper, [Up] → lower). The shape {!Sim.Soak.run}'s
    [?verdicts] hook expects. *)

val merged_verdicts : t list -> (string * int * int) list
(** {!verdicts} summed over several registries' tallies at once (one
    registry per shard in a sharded run) — the explicit cross-domain
    merge, performed after the shard domains have joined. *)

val merged_invariant : t list -> unit -> string option
(** A {!Sim.Soak.run} [invariant] hook draining unreported violations
    from several registries, in registry order. *)
