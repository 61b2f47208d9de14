(** The consolidated instrumentation context threaded through every stack
    factory.

    Before this record existed, each factory grew the same optional
    arguments ([?stats ?tracer ?monitors ?telemetry ?pool]) and every
    new instrument meant touching every signature in the repo.  An
    {!Instrument.t} bundles them — plus the {e recursion level}, the tag
    that namespaces observability when a whole transport stack runs as
    the link of another stack (see {!Link} and [Transport.Tunnel]).

    An instrument is on iff it is given: there is no process-wide
    switch. Span contexts, monitor instances and allocation cells exist
    only when the field they come from is [Some], and an absent one
    costs its call site one [None] match; without [stats], a machine's
    counters live in an unregistered scope that no report reads.

    Level tags keep the two recursion levels of an Ouroboros run apart in
    one shared registry/tracer: scopes and endpoint names at level 0 keep
    their historical bare names ([rd], [A:80>49152]) so flat runs report
    identically to every earlier PR, while level [k >= 1] prefixes
    [lk:] — scope [l1:rd], track [l1:iA:80>1], monitor key likewise. *)

type t = {
  stats : Stats.registry option;
  tracer : Sim.Tracer.t option;
      (** spans, and the [Note]s a stack's runtime records as instants *)
  monitors : Monitor.Runtime.t option;
  telemetry : Sim.Telemetry.t option;
  pool : Bitkit.Pool.t option;
  level : int;  (** recursion depth: 0 = over a raw channel *)
}

val none : t
(** No instrumentation, level 0 — the default everywhere. *)

val v :
  ?stats:Stats.registry ->
  ?tracer:Sim.Tracer.t ->
  ?monitors:Monitor.Runtime.t ->
  ?telemetry:Sim.Telemetry.t ->
  ?pool:Bitkit.Pool.t ->
  ?level:int ->
  unit ->
  t
(** Build a context; [level] defaults to 0 and must be non-negative. *)

val level_tag : t -> string
(** ["l0"], ["l1"], ... *)

val scoped : t -> string -> string
(** Namespace a sublayer scope name by level: identity at level 0,
    ["l<k>:<name>"] deeper — so [l0] scopes keep their bare historical
    names and Σ-sojourn identities can be checked per level. *)

val tagged_name : t -> string -> string
(** Namespace an endpoint/host name the same way (tracks, monitor keys). *)

(** {1 Factory helpers}

    The idioms every stack factory repeats, centralised.  The three
    constructors respect the level namespace; an absent instrument costs
    none of them a closure, so an endpoint nothing observes pays only
    for what it is given. *)

val scope : t -> string -> Stats.scope option
(** The sublayer's stats scope, when a registry is present. *)

val span : t -> now:(unit -> float) -> track:string -> string -> Span.ctx option
(** The sublayer's span context, when a tracer is present (feeding the
    level-scoped stats histogram when a registry is too). *)

val alloc_cell : t -> string -> Alloc.cell option
(** The sublayer's allocation-attribution cell — present only when both
    [telemetry] and [stats] are (cells add [gc.minor_words] counters a
    plain stats run should not see). *)

val attributed : t -> bool
(** Whether {!alloc_cell} returns cells: [telemetry] and [stats] are
    both present. {!Compose.Run} builds a stack's {!Runtime.alloc_spec}
    and its probes' cell pairs only then. *)

val labelled : t -> bool
(** Whether anything reads an endpoint's name: a monitor (its key) or a
    tracer (its track). Without either, the name goes unread. *)
