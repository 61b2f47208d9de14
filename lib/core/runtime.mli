(** Runs a sublayer (or a whole {!Machine.Stack}) under the discrete-event
    simulator: timers become engine events, [Down] requests go to a
    transmit function (usually a {!Sim.Channel}), [Up] indications go to a
    delivery callback, and [Note]s are recorded in an optional tracer:
    each is a {!Sim.Tracer.instant} at the current virtual time on the
    endpoint's track, under sublayer ["note"], its text the instant's
    name. A stack declared with {!Compose} runs through {!Compose.Run},
    which drives the composer's own drain with {!Drive} and builds the
    {!alloc_spec} below from the declaration.

    Timers. The runtime keeps one entry per armed timer value. The entry
    is made when the timer is first set, together with the one closure
    its engine events will call; setting the timer again while it is
    armed re-schedules that entry with the same closure, so a re-arm
    allocates the engine's event and nothing else. Firing or cancelling
    the timer drops the entry.

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
      store's entries a step made, overwrites their slots with
      constants, so a buffer keeps no value of a segment it is done
      with. *)

type 'timer alloc_spec = {
  al_top : Alloc.cell option;  (** machine that handles [from_above] *)
  al_bottom : Alloc.cell option;  (** machine that handles [from_below] *)
  al_app : Alloc.cell option;  (** the [deliver] excursion above the stack *)
  al_wire : Alloc.cell option;  (** the [transmit] excursion below the stack *)
  al_timer : 'timer -> Alloc.cell option;  (** owner of a firing timer *)
}
(** Where {!Alloc} charges the words allocated at the runtime's own
    seams.  Probe taps inside the stack handle the crossings {e between}
    machines; this spec covers entry (which machine a [from_above],
    [from_below] or timer fire starts in) and the excursions out of the
    stack ([deliver]/[transmit] callbacks).  A runtime created without
    one brackets nothing, so {!Compose.Run} passes a spec only when it
    has cells to put in it. *)

(** A buffer of actions, read and written in segments: the hand-off
    between a step and its reader. Each entry keeps the action its
    sublayer made; an entry a reader hands on rather than takes (a
    [Down], a timer, a note) sits once in a store its buffer shares
    with the buffers of the levels above, so handing it on copies two
    ints. Writing or handing an entry on allocates nothing once the
    arrays have grown to their high-water mark. *)
module Out : sig
  type ('d, 'tm) store
  (** The [Down]s (carrying ['d]), timers (['tm]) and notes of a stack's
      buffers. *)

  type kind = Up | Down | Set | Cancel | Note
  type 'u up

  (** A buffer whose [Up]s carry ['u], over a [('d, 'tm) store]: entry
      [i] of a segment is of kind [kinds.(i)]; an [Up] is read with
      {!up_at}, anything else is at [refs.(i)] in the store. A reader
      reads the fields in place rather than through a call per entry
      (no call across modules is inlined in the dev profile the
      benchmark builds); only this module writes them. *)
  type ('u, 'd, 'tm) t = private {
    mutable fill : int;  (** where the next entry goes *)
    mutable kinds : kind array;
    mutable refs : int array;
    mutable ups : 'u up array;
    store : ('d, 'tm) store;
  }

  val store : unit -> ('d, 'tm) store

  val create : ('d, 'tm) store -> ('u, 'd, 'tm) t
  (** An empty buffer over [store]; both grow on the first write. *)

  (** {2 Writing} Each takes the action as its sublayer made it. *)

  val up : ('u, _, _) t -> ('u, _, _) Machine.action -> unit
  (** An [Up]. *)

  val set : (_, _, 'tm) t -> 'tm -> (_, _, _) Machine.action -> unit
  (** A [Set_timer], its timer as given (tagged, say). *)

  val cancel : (_, _, 'tm) t -> 'tm -> unit
  val note : _ t -> string -> unit

  val pass : (_, 'd, 'tm) t -> kind -> int -> unit
  (** [pass b k r] hands on an entry of kind [k] (not an [Up]) at [r] in
      [b]'s store, read from a buffer below that shares it: it writes
      the entry at the end of [b]. *)

  val push_list :
    traced:bool -> ('u, 'd, 'tm) t -> ('t -> 'tm) -> ('u, 'd, 't) Machine.action list -> unit
  (** [push_list ~traced b tag acts] writes a handler's actions in order,
      each timer [tm] as [tag tm]; a [Note] only when [traced]. *)

  (** {2 Reading} Entry [i] of a segment being read. *)

  val up_at : ('u, _, _) t -> int -> 'u
  val note_at : _ t -> int -> string

  val release : _ t -> int -> unit
  (** [release b start] drops [b]'s entries from [start] on: the segment
      read, with whatever was written after it. The store's entries are
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
  type timer

  type scratch
  (** The buffers a step writes to: [out] and any the step reads. *)

  val scratch : unit -> scratch
  (** A fresh scratch; {!Drive} makes one per engine. *)

  val out : scratch -> (up_ind, down_req, timer) Out.t

  val reset : scratch -> unit
  (** Empty the buffers a step fills below [out]: a step that raised
      may have left a segment there unreleased. Between steps they are
      empty. *)

  val up_req : traced:bool -> scratch -> t -> up_req -> t
  val down_ind : traced:bool -> scratch -> t -> down_ind -> t
  val timer : traced:bool -> scratch -> t -> timer -> t
end

(** One endpoint: a machine run under the simulator. *)
module type ENDPOINT = sig
  type t
  type state
  type up_req
  type up_ind
  type down_req
  type down_ind
  type timer

  val create :
    Sim.Engine.t ->
    ?tracer:Sim.Tracer.t ->
    ?alloc:timer alloc_spec ->
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
     and type timer = D.timer

(** A sublayer (or a {!Machine.Stack}) under the simulator: {!Drive}
    over its handlers, each step writing the list its handler returns
    to the buffer, so every [Note] reaches the runtime when it has a
    tracer. *)
module Make (S : Machine.S) :
  ENDPOINT
    with type state = S.t
     and type up_req = S.up_req
     and type up_ind = S.up_ind
     and type down_req = S.down_req
     and type down_ind = S.down_ind
     and type timer = S.timer
