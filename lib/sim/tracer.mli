(** Causal per-packet span tracing.

    A tracer collects {e spans}: named intervals of virtual time opened
    and closed at sublayer boundaries, linked into causal lineages by a
    {e trace id} (one per payload entering a stack) and a {e parent span}
    (a retransmission is a child of the original send). Finished spans
    live in a bounded {!Ring}; a string-keyed correlation table lets the
    receiving end of a link close a span the sending end opened — the
    cross-host linkage is out of band, so no wire format changes.

    A tracer is also a stack's event log: [Sublayer.Runtime] records
    each [Note] a machine emits as an {!instant} on the endpoint's track
    under sublayer ["note"], its text as the span's name.

    The module is deliberately ignorant of the sublayer library (sim does
    not depend on it); [Sublayer.Span] layers the per-machine ergonomics
    and Stats histograms on top. *)

type span = {
  sp_id : int;          (** unique per tracer, from 1 *)
  sp_trace : int;       (** causal lineage; 0 = unknown *)
  sp_parent : int;      (** parent span id; 0 = root *)
  sp_track : string;    (** endpoint/host the span belongs to *)
  sp_sublayer : string; (** machine that opened it *)
  sp_name : string;
  sp_start : float;
  mutable sp_end : float; (** NaN while the span is live *)
  mutable sp_detail : string;
}

type t

val create : ?capacity:int -> unit -> t
(** Ring capacity defaults to 8192 finished spans; older spans are
    evicted, counted by {!dropped}. A tracer records whatever it is
    handed: an instrument that has no tracer records nothing. *)

val fresh_trace : t -> int
(** Allocate a new trace id (never 0). *)

val start :
  t ->
  at:float ->
  track:string ->
  sublayer:string ->
  ?trace:int ->
  ?parent:int ->
  string ->
  int
(** Open a span; returns its id. *)

val finish : t -> at:float -> ?detail:string -> int -> span option
(** Close a live span by id and move it to the ring. [None] if the id is
    unknown (already finished, or evicted). *)

val instant :
  t ->
  at:float ->
  track:string ->
  sublayer:string ->
  ?trace:int ->
  ?parent:int ->
  ?detail:string ->
  string ->
  unit
(** A zero-duration span, recorded directly. *)

val trace_of : t -> int -> int option
(** Trace id of a span: live spans first, then the finished-span ring
    (newest first), so a retransmission of a segment whose original send
    span already closed still inherits the lineage. [None] only once the
    span has been evicted from the ring. *)

val bind : t -> string -> int -> unit
(** Correlation table: associate a span or trace id with a key both ends
    of a link can compute (e.g. ISN pair + stream offset). *)

val lookup : t -> string -> int option
val unbind : t -> string -> unit

val dropped : t -> int
(** Finished spans evicted from the ring so far. *)

val spans : t -> span list
(** Retained finished spans, oldest first. *)

val live_spans : t -> span list
(** Still-open spans, unordered. *)

val last : t -> int -> span list
(** The most recent [n] finished spans, oldest first. *)

val duration : span -> float
val span_to_string : span -> string
val pp_span : Format.formatter -> span -> unit

val to_chrome_json : ?clock_sync:string -> ?extra:string list -> t -> string
(** Chrome [trace_event] JSON (an object with a [traceEvents] array of
    complete ["ph":"X"] events, microsecond timestamps) loadable in
    chrome://tracing or https://ui.perfetto.dev. Tracks map to processes
    and sublayers to threads; events are sorted so [ts] is non-decreasing
    on every track. With [?clock_sync:id], every track additionally
    carries a ["clock_sync"] metadata record naming sync domain [id] —
    all tracks run on the one virtual clock, and the marker says so
    explicitly, so viewers align multi-track traces instead of treating
    each process as an independent clock domain. [extra] records —
    pre-serialised trace_event objects, e.g.
    {!Telemetry.chrome_counter_events} — are spliced into the array
    verbatim, so counter tracks render alongside the spans. *)

val merged_chrome_json :
  ?clock_sync:string -> ?extra:string list -> (string * t) list -> string
(** Merge several tracers (one per shard in a sharded run) into one
    Chrome trace: each tracer's tracks are namespaced as
    ["<label>/<track>"] and every track carries a {!to_chrome_json}
    [clock_sync] marker in the same sync domain (default
    ["sim-vclock"]). *)

val biography : t -> trace:int -> string
(** Text "packet biography": every retained span of one trace, in order,
    with parent links and details. *)
