(** Runs a sublayer (or a whole {!Machine.Stack}) under the discrete-event
    simulator: timers become engine events, [Down] requests go to a
    transmit function (usually a {!Sim.Channel}), [Up] indications go to a
    delivery callback, and [Note]s are recorded in an optional tracer:
    each is a {!Sim.Tracer.instant} at the current virtual time on the
    endpoint's track, under sublayer ["note"], its text the instant's
    name. A stack declared with {!Compose} runs through {!Compose.Run},
    which builds the {!alloc_spec} below from the declaration.

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

module Make (S : Machine.S) : sig
  type t

  val create :
    Sim.Engine.t ->
    ?tracer:Sim.Tracer.t ->
    ?alloc:S.timer alloc_spec ->
    name:string ->
    transmit:(S.down_req -> unit) ->
    deliver:(S.up_ind -> unit) ->
    S.t ->
    t
  (** [name] is the track this endpoint's [Note]s are recorded on in
      [tracer].  [alloc] enables per-sublayer allocation attribution at
      the runtime seams: each entry point and excursion is an
      {!Alloc.bracket} of the spec's cell for it. *)

  val state : t -> S.t
  (** Current sublayer state (for assertions and inspection). *)

  val from_above : t -> S.up_req -> unit
  (** Inject an application-level request. *)

  val from_below : t -> S.down_ind -> unit
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
