(** Per-machine span tracing context.

    A [ctx] is what a sublayer machine holds to participate in causal
    tracing: it fixes the endpoint ({e track}) and sublayer name, reads
    virtual time on demand, and maps the machine's short string keys
    (["f:<offset>"] for an RD flight, say) to live span ids in the shared
    {!Sim.Tracer}. Closing a keyed span also records its sojourn into a
    [<name>_us] log₂ histogram in the machine's {!Stats} scope.

    A ctx records iff it was given a tracer: every operation on a ctx
    built with {!disabled} reduces to one [None] match and allocates
    nothing. A caller that builds a key or detail string for a span
    should build it only under {!active}. *)

type ctx

val disabled : string -> ctx
(** [disabled sublayer] never records anything. The default every machine
    falls back to when no tracer is threaded in. *)

val make :
  tracer:Sim.Tracer.t ->
  ?stats:Stats.scope ->
  now:(unit -> float) ->
  track:string ->
  string ->
  ctx
(** [make ~tracer ?stats ~now ~track sublayer]. *)

val active : ctx -> bool
(** Whether the ctx has a tracer. *)

val fresh_trace : ctx -> int
(** New trace id, or 0 when inactive. *)

val open_ : ctx -> key:string -> ?trace:int -> ?parent:int -> string -> unit
(** Open a span and remember it under [key] (replacing any previous
    binding for the key). *)

val close : ctx -> key:string -> ?detail:string -> unit -> unit
(** Finish the keyed span if still live (recording its sojourn in the
    stats histogram); if a peer already closed it, just forget the key. *)

val close_all : ctx -> ?detail:string -> unit -> unit
(** Close every keyed span — connection aborts, resets, give-ups. *)

val child : ctx -> key:string -> ?detail:string -> string -> unit
(** Instant child span of the keyed live span, in the same trace: the
    retransmission-lineage primitive. Falls back to a plain instant if
    the key is unknown. *)

val instant :
  ctx -> ?trace:int -> ?parent:int -> ?detail:string -> string -> unit

val id_of : ctx -> key:string -> int
(** Live span id under [key], or 0. *)

val trace_of : ctx -> key:string -> int
(** Trace id of the keyed live span, or 0. *)

val start_free : ctx -> ?trace:int -> ?parent:int -> string -> int
(** Open a span {e without} a local key — for intervals a different
    machine will close via the correlation table. Returns the span id
    (0 when inactive). *)

val close_id : ctx -> id:int -> ?detail:string -> unit -> int
(** Finish a span by id (from {!start_free} or the correlation table),
    recording its sojourn here. Returns its trace id, or 0. *)

val trace_of_id : ctx -> id:int -> int

(** {2 Correlation keys}

    Global string keys in the shared tracer: both ends of a link bind and
    look up ids under keys only they can reconstruct (ISN pair + offset).
    The [_local] variants prefix the ctx's track, scoping the key to one
    endpoint's sublayers. *)

val bind : ctx -> string -> int -> unit
val lookup : ctx -> string -> int
val unbind : ctx -> string -> unit

val take : ctx -> string -> int
(** Lookup then unbind — single-consumer handoff. *)

val bind_local : ctx -> string -> int -> unit
val lookup_local : ctx -> string -> int
val take_local : ctx -> string -> int
