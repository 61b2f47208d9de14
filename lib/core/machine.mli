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
    uses and improves the service of the lower); it is the reference
    drain, whose order every other composition must keep. A whole stack
    is declared with {!Compose}, which runs the same order on a drain of
    its own, with a conformance {!Probe} watching each boundary. Because
    composition is by module functor over the port types, the stack has
    no access to either sublayer's internal state — test T3's state
    separation holds by construction. *)

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
    in causal order: when [Lower] returns a list, it is drained in full,
    each [Up] in it handed to [Upper] as the drain reaches it, and an
    action [Upper] returns is routed before the rest of the list it
    interrupted.

    The reference drain. Nested stacks give every other composition its
    order: {!Compose.Run} makes the same sublayer calls, tap observations
    and boundary actions as a nesting of [Stack]s with each probe a
    {!Probe} level of its own, run by {!Runtime.Make}, and the tests hold
    it to that. [Stack] itself is held to the list-rebuilding drain it
    replaced ([test/stack_oracle.ml]).

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

(** The empty type, for sublayers with no timers. *)
module Nothing : sig
  type t = |

  val absurd : t -> 'a
end

(** A transparent tap on one interface: forwards everything unchanged,
    calling the observation closures on the way past. Its state is the
    pair of closures, so the same stack type can carry live monitors or
    no-op functions — composition and event counts are identical either
    way. A probe composes as a level of its own, or as the
    {!Compose.TAP} of a {!Compose.Seam}, which calls the same closures
    from inside the boundary; {!Compose.Tap} builds every library
    seam's probe on it. *)
module Probe (M : sig
  type req
  type ind

  val name : string
end) : sig
  type t = { obs_req : M.req -> unit; obs_ind : M.ind -> unit }

  val inert : t
  (** The probe that observes nothing: both observers are no-ops. One
      value per instantiation, so a seam handed it can tell, by physical
      equality, that there is nothing to call. *)

  include
    S
      with type t := t
       and type up_req = M.req
       and type up_ind = M.ind
       and type down_req = M.req
       and type down_ind = M.ind
       and type timer = Nothing.t
end
