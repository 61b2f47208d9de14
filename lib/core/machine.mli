(** The sublayer abstraction (paper §1, tests T1–T3).

    A sublayer is a pure, event-driven state machine with four typed ports:
    requests from the sublayer above ([up_req]), indications to the sublayer
    above ([up_ind]), requests to the sublayer below ([down_req]) and
    indications from the sublayer below ([down_ind]). The port types are the
    *narrow interface* of test T2: a sublayer can only be composed with
    neighbours whose port types match, and it can only influence the rest of
    the stack through values of those types.

    Transitions are pure ([state -> input -> state * actions]), which lets
    the very same sublayer code run under the discrete-event simulator
    ({!Runtime}) and under the explicit-state model checker ([Mcheck]).

    {!Stack} composes two sublayers into one (test T1: the upper sublayer
    uses and improves the service of the lower), and {!Seam} does the same
    with a conformance {!Probe} watching the boundary. A whole stack is
    declared with {!Compose}, which nests the seams and derives what each
    needs from the nesting. Because composition is by module functor over
    the port types, the stack has no access to either sublayer's internal
    state — test T3's state separation holds by construction. *)

type ('up_ind, 'down_req, 'timer) action =
  | Up of 'up_ind
      (** Deliver an indication to the sublayer (or application) above. *)
  | Down of 'down_req
      (** Issue a request to the sublayer (or wire) below. *)
  | Set_timer of 'timer * float
      (** (Re)arm a named timer to fire after a relative delay. *)
  | Cancel_timer of 'timer
  | Note of string
      (** Trace annotation; no protocol effect. *)

(** Interface implemented by every sublayer. *)
module type S = sig
  val name : string

  type t
  type up_req
  type up_ind
  type down_req
  type down_ind
  type timer

  val handle_up_req : t -> up_req -> t * (up_ind, down_req, timer) action list
  val handle_down_ind : t -> down_ind -> t * (up_ind, down_req, timer) action list
  val handle_timer : t -> timer -> t * (up_ind, down_req, timer) action list
end

(** [Stack (Upper) (Lower)] is the sublayer whose service is [Upper]'s,
    running over [Lower]'s. [Upper]'s down port must match [Lower]'s up
    port. Actions crossing the internal boundary are routed immediately and
    in causal order.

    Cost of a crossing. One step (one [handle_*] call on the stack)
    allocates one record holding both states, updated in place as
    actions cross, and hands back the incoming pair when neither state
    moved. Each action leaving the stack is wrapped once for this level
    ([Either] around a timer, the sublayer's name before a [Note]) and
    consed onto the output in order, so no list is reversed or rebuilt
    and no state tuple is built per action. A crossing that interrupts a
    list saves the list's rest; one that ends its list saves nothing.
    The [Note] prefixes are built once per functor application. *)
module Stack
    (Upper : S)
    (Lower : S with type up_req = Upper.down_req and type up_ind = Upper.down_ind) :
  S
    with type t = Upper.t * Lower.t
     and type up_req = Upper.up_req
     and type up_ind = Upper.up_ind
     and type down_req = Lower.down_req
     and type down_ind = Lower.down_ind
     and type timer = (Upper.timer, Lower.timer) Either.t

(** What a {!Seam} needs of its tap: a name and a record of two
    observers. Every {!Probe} instantiation is one. *)
module type TAP = sig
  val name : string

  type up_req
  type up_ind
  type t = { obs_req : up_req -> unit; obs_ind : up_ind -> unit }
end

(** [Seam (Upper) (P) (Lower)] is [Stack (Upper) (Stack (P) (Lower))]
    with the probe [P] fused into the boundary, so a crossing climbs one
    drain level instead of two. [Stack] and [Seam] run the same drain;
    a stack is a seam without a tap.

    Contract: a seam is observably the two levels it replaces. It makes
    the same sublayer calls in the same order, calls the tap's observers
    in the same order, and returns the same actions, with two shapes
    flatter: the state is one record, built with [make] and read with
    [upper] and [lower], and a timer is wrapped once, [Left] for
    [Upper]'s and [Right] for [Lower]'s. Its [name] is the nested
    stack's, and a [Note] from [Lower] carries both prefixes the nested
    stack gives it (["P/Lower: Lower: "]), so trace text is unchanged.

    Observation order. [obs_req r] runs just before
    [Lower.handle_up_req r]. When [Lower] returns a list of actions,
    from any of its three handlers, [obs_ind] sees every [Up] in it as
    the list arrives, before [Upper] handles the first of them — the
    probe level's inner stack drained [Lower]'s whole list before the
    outer stack saw any of it. Observing each [Up] only when [Upper]
    takes it would reorder observations against [Upper]'s own
    crossings.

    Cost. Against the nested pair, a crossing saves a whole drain
    level: the probe's own step and action list, a second state record,
    the inner level's re-wrapping and re-consing of every action that
    passes, and one [Either] per [Lower] timer. The tap's observers are
    called straight from the drain; each list [Lower] returns is walked
    once more to show its [Up]s to the tap. The state is the drain's own
    record: a step copies the incoming state, drains into the copy and
    returns it (or the incoming state, when neither sublayer's moved), so
    a step allocates that one record and no tuple. A returned state is
    never written again, so old states stay valid. *)
module Seam
    (Upper : S)
    (P : TAP with type up_req = Upper.down_req and type up_ind = Upper.down_ind)
    (Lower : S with type up_req = Upper.down_req and type up_ind = Upper.down_ind) : sig
  include
    S
      with type up_req = Upper.up_req
       and type up_ind = Upper.up_ind
       and type down_req = Lower.down_req
       and type down_ind = Lower.down_ind
       and type timer = (Upper.timer, Lower.timer) Either.t

  val make : Upper.t -> P.t -> Lower.t -> t
  (** The seam's state from its sublayers' states and its tap. *)

  val upper : t -> Upper.t
  val lower : t -> Lower.t
end

(** The empty type, for sublayers with no timers. *)
module Nothing : sig
  type t = |

  val absurd : t -> 'a
end

(** A sublayer with no behaviour of its own, useful as a stack terminator
    or in tests. *)
module Identity (M : sig
  type msg

  val name : string
end) :
  S
    with type t = unit
     and type up_req = M.msg
     and type up_ind = M.msg
     and type down_req = M.msg
     and type down_ind = M.msg
     and type timer = Nothing.t

(** A transparent tap on one interface: forwards everything unchanged,
    calling the observation closures on the way past. Its state is the
    pair of closures, so the same stack type can carry live monitors or
    no-op functions — composition and event counts are identical either
    way. A probe composes as a level of its own, or as the {!TAP} of a
    {!Seam}, which calls the same closures from inside the boundary. *)
module Probe (M : sig
  type req
  type ind

  val name : string
end) : sig
  type t = { obs_req : M.req -> unit; obs_ind : M.ind -> unit }

  include
    S
      with type t := t
       and type up_req = M.req
       and type up_ind = M.ind
       and type down_req = M.req
       and type down_ind = M.ind
       and type timer = Nothing.t
end
