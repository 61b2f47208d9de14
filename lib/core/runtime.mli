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
    the timer drops the entry. *)

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

(** What a machine's step returns, as a value its caller can match on
    instead of calling back into the machine. *)
type ('state, 'acts, 'step) shape =
  | In_place : ('state, 'acts, 'acts) shape
      (** the actions alone: the step left the state where it was *)
  | Pair : ('state, 'acts, 'state * 'acts) shape
      (** the next state and the actions, as a sublayer's handler
          returns them *)

(** What {!Drive} runs: a machine whose steps may leave their state in
    place. A step is handed the state and one input and returns a
    [step] of the declared [shape]: its actions, in order, and for a
    [Pair] the state to keep. [traced] tells a step whether the endpoint
    records [Note]s (it has a tracer), so a drain can leave them out
    when nothing would read them. *)
module type DRIVEN = sig
  type t
  type up_req
  type up_ind
  type down_req
  type down_ind
  type timer
  type step

  val shape : (t, (up_ind, down_req, timer) Machine.action list, step) shape
  val up_req : traced:bool -> t -> up_req -> step
  val down_ind : traced:bool -> t -> down_ind -> step
  val timer : traced:bool -> t -> timer -> step
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
      actions left in the step being applied. Idempotent. *)

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

(** A sublayer (or a {!Machine.Stack}) under the simulator: each step is
    the pair its handler returns, and every [Note] reaches the runtime,
    which records it when it has a tracer. *)
module Make (S : Machine.S) :
  ENDPOINT
    with type state = S.t
     and type up_req = S.up_req
     and type up_ind = S.up_ind
     and type down_req = S.down_req
     and type down_ind = S.down_ind
     and type timer = S.timer
