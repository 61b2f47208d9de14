(** Runs a sublayer (or a whole {!Machine.Stack}) under the discrete-event
    simulator: timers become engine events, [Down] requests go to a
    transmit function (usually a {!Sim.Channel}), [Up] indications go to a
    delivery callback, and [Note]s are recorded in an optional tracer:
    each is a {!Sim.Tracer.instant} at the current virtual time on the
    endpoint's track, under sublayer ["note"], its text the instant's
    name. A stack declared with {!Compose} runs through {!Compose.Run},
    which drives the composer's own drain with {!Drive} and builds the
    {!alloc_spec} below from the declaration.

    Timers. Every runtime's timers are {!key}s: a sublayer's timer under
    the constructor its level adds, whether the level is one sublayer
    run by {!Make} or a level of a declared stack. The runtime keeps one
    entry per armed key. The entry is made when the timer is first set,
    together with the one closure its engine events will call; setting
    the timer again while it is armed re-schedules that entry with the
    same closure, so a re-arm allocates the engine's event and nothing
    else. Firing or cancelling the timer drops the entry.

    Segments. A step does not hand the runtime a list: it writes its
    actions at the end of a buffer ({!Out}), and the runtime's one
    applier reads them from where the step began to the buffer's fill,
    then releases them. The buffers are the machine's scratch, made
    once per engine on the first [create] there and shared by every
    endpoint of the machine on that engine: no step and no endpoint
    allocates one, and a domain runs its own engine, so a sharded
    fabric's domains never share a buffer. The contract:
    - {b A segment ends at the fill.} Whatever runs while a segment is
      read (a callback that re-enters [from_above] on this endpoint or on
      another one sharing the buffer, a crossing inside a stack) writes
      after the segment and releases what it wrote before it returns, so
      the reader's segment is where it left it.
    - {b Released on every exit.} A segment is released when it has been
      read, and also when a step or a callback raises (the runtime then
      empties the machine's buffers below [out], which only a step in
      progress fills); a step after a raise starts from the fill before
      the raising one.
    - {b Released slots keep nothing.} Releasing a segment, and the
      store's slots a step made, overwrites them with constants, so a
      buffer keeps no value of a segment it is done with. *)

type key = ..
(** A timer: a sublayer's timer under the constructor its level adds. *)

type alloc_spec = {
  al_top : Alloc.cell option;  (** machine that handles [from_above] *)
  al_bottom : Alloc.cell option;  (** machine that handles [from_below] *)
  al_app : Alloc.cell option;  (** the [deliver] excursion above the stack *)
  al_wire : Alloc.cell option;  (** the [transmit] excursion below the stack *)
  al_timer : key -> Alloc.cell option;  (** owner of a firing timer *)
}
(** Where {!Alloc} charges the words allocated at the runtime's own
    seams.  Probe taps inside the stack handle the crossings {e between}
    machines; this spec covers entry (which machine a [from_above],
    [from_below] or timer fire starts in) and the excursions out of the
    stack ([deliver]/[transmit] callbacks).  A runtime created without
    one brackets nothing, so {!Compose.Run} passes a spec only when it
    has cells to put in it. *)

(** A buffer of actions, read and written in segments: the hand-off
    between a step and its reader. Each [Down], timer action or note a
    level makes is one slot of a store its buffer shares with the
    buffers of the levels above: the action as its sublayer made it,
    with its timer's key beside it. An entry of a buffer is one int, the
    index of a slot or {!held} for an [Up] the buffer keeps itself, so
    handing an action on copies one int. Writing or handing an entry on
    allocates nothing once the arrays have grown to their high-water
    mark. *)
module Out : sig
  type 'd store
  (** The [Down]s (carrying ['d]), timer actions and notes of a stack's
      buffers. *)

  type 'u up

  type 'd made = Made : (_, 'd, _) Machine.action -> 'd made [@@unboxed]
  (** An action as its sublayer made it, named only by its [Down]'s
      type. *)

  (** A buffer whose [Up]s carry ['u], over a ['d store]: entry [i] of a
      segment is the store's slot [refs.(i)], or {!held} for an [Up],
      read with {!up_at}. A reader reads the fields in place rather than
      through a call per entry (no call across modules is inlined in the
      dev profile the benchmark builds); only this module writes them. *)
  type ('u, 'd) t = private {
    mutable fill : int;  (** where the next entry goes *)
    mutable refs : int array;
    mutable ups : 'u up array;
    store : 'd store;
  }

  val held : int
  val store : unit -> 'd store

  val create : 'd store -> ('u, 'd) t
  (** An empty buffer over [store]; both grow on the first write. *)

  (** {2 Writing} Each takes the action as its sublayer made it. *)

  val up : ('u, _) t -> ('u, _, _) Machine.action -> unit
  (** An [Up]. *)

  val put : (_, 'd) t -> (_, 'd, _) Machine.action -> unit
  (** A [Down] or a [Note]. *)

  val timer : (_, 'd) t -> key -> (_, 'd, _) Machine.action -> unit
  (** A [Set_timer] or [Cancel_timer], its timer's key beside it. *)

  val pass : (_, 'd) t -> string -> int -> unit
  (** [pass b tag r] hands on slot [r] of [b]'s store, written through a
      buffer below that shares it: it writes an entry at the end of [b].
      A note is put anew, [tag] before its text. *)

  (** {2 Reading} Entry [i] of a segment being read. *)

  val up_at : ('u, _) t -> int -> 'u

  val made_at : (_, 'd) t -> int -> 'd made
  (** The action of an entry that is not {!held}. *)

  val release : _ t -> int -> unit
  (** [release b start] drops [b]'s entries from [start] on: the segment
      read, with whatever was written after it. The store's slots are
      dropped at the top, once the segment that refers to them is
      applied. *)
end

val remember : ('k -> 'k -> bool) -> ('k -> 'v) -> 'k -> 'v
(** [remember same make] is [make], remembered for the last few keys
    ([same] tells them apart): a key it has dropped gets a fresh value.
    It keeps no key it has dropped alive. *)

(** What {!Drive} runs: a machine whose step writes its actions to a
    buffer. A step is handed whether the endpoint records [Note]s (it
    has a tracer), the endpoint's scratch, the state and one input; it
    writes its actions, in order, at the end of [out scratch] and
    returns the state to keep. *)
module type DRIVEN = sig
  type t
  type up_req
  type up_ind
  type down_req
  type down_ind

  type scratch
  (** The buffers a step writes to: [out] and any the step reads. *)

  val scratch : unit -> scratch
  (** A fresh scratch; {!Drive} makes one per engine. *)

  val out : scratch -> (up_ind, down_req) Out.t

  val reset : scratch -> unit
  (** Empty the buffers a step fills below [out]: a step that raised
      may have left a segment there unreleased. Between steps they are
      empty. *)

  val up_req : traced:bool -> scratch -> t -> up_req -> t
  val down_ind : traced:bool -> scratch -> t -> down_ind -> t
  val timer : traced:bool -> scratch -> t -> key -> t
end

(** One endpoint: a machine run under the simulator. *)
module type ENDPOINT = sig
  type t
  type state
  type up_req
  type up_ind
  type down_req
  type down_ind

  val create :
    Sim.Engine.t ->
    ?tracer:Sim.Tracer.t ->
    ?alloc:alloc_spec ->
    name:string ->
    transmit:(down_req -> unit) ->
    deliver:(up_ind -> unit) ->
    state ->
    t
  (** [name] is the track this endpoint's [Note]s are recorded on in
      [tracer].  [alloc] enables per-sublayer allocation attribution at
      the runtime seams: each entry point and excursion is an
      {!Alloc.bracket} of the spec's cell for it. *)

  val state : t -> state
  (** Current machine state (for assertions and inspection). *)

  val from_above : t -> up_req -> unit
  (** Inject an application-level request. *)

  val from_below : t -> down_ind -> unit
  (** Inject a message arriving from the wire; wire this as the channel's
      delivery callback. *)

  val halt : t -> unit
  (** Make the runtime inert: cancel every armed timer and turn
      [from_above]/[from_below]/timer fires into no-ops.  The give-up
      path for a stack whose link died underneath it (a tunnel's outer
      connection aborting) — state is kept readable, nothing runs.
      Called from a [deliver] or [transmit] callback, it also drops the
      actions left in the segment being applied. Idempotent. *)

  val halted : t -> bool
  val active_timers : t -> int
end

(** The runtime over any {!DRIVEN} machine. {!Make} is this over a
    {!Machine.S}, and {!Compose.Run} over a declared stack. *)
module Drive (D : DRIVEN) :
  ENDPOINT
    with type state = D.t
     and type up_req = D.up_req
     and type up_ind = D.up_ind
     and type down_req = D.down_req
     and type down_ind = D.down_ind

(** One sublayer (or a {!Machine.Stack}) as a {!DRIVEN} machine: a step
    writes the list its handler returns to the buffer as it is, each
    timer under the key this level adds, each [Note] only when
    [traced]. {!Make} runs it, and {!Compose.Last} is it at the bottom
    of a declared stack. *)
module Level (M : Machine.S) : sig
  include
    DRIVEN
      with type t = M.t
       and type up_req = M.up_req
       and type up_ind = M.up_ind
       and type down_req = M.down_req
       and type down_ind = M.down_ind

  val scratch_on : M.down_req Out.store -> scratch
  (** A scratch over [store]; [scratch ()] is this on a fresh one. *)
end

(** A sublayer (or a {!Machine.Stack}) under the simulator: {!Drive}
    over its {!Level}, so every [Note] reaches the runtime when it has a
    tracer. *)
module Make (S : Machine.S) :
  ENDPOINT
    with type state = S.t
     and type up_req = S.up_req
     and type up_ind = S.up_ind
     and type down_req = S.down_req
     and type down_ind = S.down_ind
