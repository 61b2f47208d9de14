(** Declaring a stack: the one place that knows how sublayers join.

    A stack is declared top to bottom, one {!Seam} per boundary over a
    {!Last}, and run with {!Run}; the sublayered TCP of Figure 5 is
    {[
      module S =
        Seam (Osr) (Conform.P_osr_rd)
          (Seam (Rd) (Conform.P_rd_cm) (Seam (Cm) (Conform.P_pdu) (Last (Dm))))

      module R = Run (S)
    ]}
    What a factory would otherwise wire by hand follows from the nesting:
    - one allocation cell per sublayer, under its {!SUBLAYER.scope};
    - each seam's probe, built with the cells of its two sides: above,
      the level's own sublayer; below, the top sublayer of the level
      beneath;
    - the runtime's {!Runtime.alloc_spec}: the top and bottom sublayers'
      cells for the entry points, and for a firing timer the cell of
      the level whose {!key} it carries.

    Cells exist only when {!Instrument.attributed} holds; otherwise no
    cell, pair or spec is built and each probe is made without one.

    {1 The drain}

    The composer runs a declared stack on a drain of its own. Its
    contract:
    - {b Order.} It makes the same sublayer calls, tap observations and
      boundary actions, in the same order, as the reference drain: the
      same sublayers nested with {!Machine.Stack}, each probe a
      {!Machine.Probe} level of its own, run by {!Runtime.Make}. A lower
      stack drains completely before the level above takes any of its
      [Up]s, and what a crossing triggers runs before the rest of the
      list or segment it interrupted.
    - {b Segments, not lists.} Each level writes what it passes on into
      a {!Runtime.Out} buffer, and the level above reads that segment,
      from where the step began to the buffer's fill, then releases it
      ({!Runtime}'s segment contract, which the runtime's own applier
      keeps at the top). Each [Down], timer action or note a level makes
      is one slot of a store the levels share: the action as its
      sublayer made it, never rebuilt, with its timer's key beside it.
      An entry of a level's buffer is one int, a slot's index or the
      mark of an [Up] the level keeps, so handing an action on copies
      one int. A crossing allocates only the {!key} a timer gets where
      it leaves its sublayer (and, under a tracer, the [Note] a seam
      re-prefixes). A sublayer's handler still returns its list;
      {!Last} writes it to its level's buffer as it is.
    - {b One scratch per engine.} The buffers of all levels are the
      declaration's scratch, made by the first {!Run.create} on an engine
      and shared by every endpoint of the declaration there.
    - {b Re-entry.} A step that starts while a segment is being read (a
      [deliver] calling [from_above] on this endpoint, or on another
      endpoint of the declaration on the same engine) writes after that
      segment at every level and releases what it wrote before it
      returns. The levels below the top hold a segment only while a step
      drains, so a raise is left to the runtime, which empties them
      ([reset]) with the top segment. So every reader finds its segment
      where it left it, and a step after a raise starts clean.
    - {b State in place.} Each {!Seam} level is one record a step updates
      in place; a step copies no state. {!Run.state} reads the live
      record, and an old state is not kept: a step that a sublayer's
      raise cuts short leaves the levels that stepped before it in
      their new states, where the reference keeps the state from before
      the step.
    - {b One key per timer.} A sublayer's timer is tagged once, with the
      {!key} constructor its level adds (as {!Runtime.Make} tags a lone
      sublayer's), and crosses the levels above unwrapped; the runtime
      finds it by comparing flat keys.
    - {b Notes only under a tracer.} With a tracer a [Note] reaches the
      runtime with the prefixes the reference drain gives it, built as
      it climbs; without one no level writes a [Note], so none reaches
      the runtime and no prefix is built.
    - {b Inert probes not called.} A seam whose tap is its probe's
      shared {!TAP.inert} value calls neither observer and skips the
      walk that shows a lower segment's [Up]s to the tap. *)

(** A sublayer a stack can be declared with. *)
module type SUBLAYER = sig
  include Machine.S

  val scope : string
  (** The name its counters, spans and allocation cell are found under
      (level-prefixed by {!Instrument.scoped}). *)
end

(** What a {!Seam} needs of its tap: a name, a record of two observers,
    and the one value that observes nothing. Every {!PROBE} is one. *)
module type TAP = sig
  val name : string

  type up_req
  type up_ind
  type t = { obs_req : up_req -> unit; obs_ind : up_ind -> unit }

  val inert : t
end

type key = Runtime.key = ..
(** A timer of a declared stack: its sublayer's timer under the
    constructor the sublayer's level adds, as at every runtime. *)

type 'p probe = ?alloc:Alloc.pair -> Monitor.Runtime.t option -> conn:string -> 'p
(** A seam's probe constructor: given the seam's cell pair (absent when
    nothing is attributed), the monitors and the endpoint's name to key
    them by. *)

(** {1 Probes}

    Every seam's probe is built by its interface's {!Tap}, under one
    policy:
    - {b Inert.} With no monitor and no cell (the pair absent, or both
      sides [None]), the constructor returns the interface's {!TAP.inert}
      probe, the physically same record for every endpoint. It allocates
      nothing, and the seam holding it calls neither observer.
    - {b Own.} Otherwise the endpoint gets a probe of its own: the
      monitor's observers, no-ops without one. With a cell, each
      observer first {!Alloc.cross}es into the cell of the side the
      message is heading to, so the observation is charged with the step
      it leads to; a crossing into [None] stays unattributed.

    A monitored and an unmonitored endpoint have the same types, event
    counts and schedules. *)

module type PROBE = sig
  type req
  type ind
  type t = { obs_req : req -> unit; obs_ind : ind -> unit }

  val inert : t

  (** The probe as a {!Machine.Stack} level of its own, named ["mon"]:
      the reference nesting a declared stack is held to. *)
  include
    Machine.S
      with type t := t
       and type up_req = req
       and type up_ind = ind
       and type down_req = req
       and type down_ind = ind
       and type timer = Machine.Nothing.t

  val make : (Monitor.Runtime.t -> conn:string -> (req -> unit) * (ind -> unit)) -> t probe
  (** [make observe]: [observe mon ~conn] attaches the interface's spec
      to [mon] under [conn] and returns its two observers. *)

  val opaque : Monitor.Spec.t -> req_len:(req -> int) -> ind_len:(ind -> int) -> t probe
  (** For a spec that sees one [pdu] each way, with [a] its length. *)

  val cells : t probe
  (** Charges the seam's cells and observes nothing, monitored or not. *)
end

(** The probe of the interface [M.req]/[M.ind]. *)
module Tap (M : sig
  type req
  type ind
end) : PROBE with type req = M.req and type ind = M.ind

(** A declared stack: what a {!Seam} needs of the stack below it, and
    {!Run} of the whole. Its steps are {!Runtime.DRIVEN} steps: each
    writes its actions, in order, at the end of [out scratch] and
    returns the state to keep; every timer in them is a {!key}. *)
module type STACK = sig
  val name : string
  (** The name of the reference nesting, probes included. *)

  type t
  type up_req
  type up_ind
  type down_req
  type down_ind

  type parts
  (** What a factory hands over, top to bottom: each sublayer's initial
      state, and between two of them the probe constructor of their
      seam. *)

  val scopes : string array
  (** The sublayers' scopes, bottom first. *)

  val owner : key -> int
  (** The index in {!scopes} of the sublayer that owns a timer. *)

  val build : Alloc.cell option array -> Monitor.Runtime.t option -> conn:string -> parts -> t
  (** [build cells monitors ~conn parts] is the stack's state, each
      probe made with the cells of its seam from [cells] (indexed as
      {!scopes}; empty when nothing is attributed). Probes are made
      bottom up. *)

  include
    Runtime.DRIVEN
      with type t := t
       and type up_req := up_req
       and type up_ind := up_ind
       and type down_req := down_req
       and type down_ind := down_ind
  (** [traced] is whether the endpoint has a tracer: a level writes
      [Note]s only then. [timer] is handed a key one of its levels
      owns. *)

  val scratch_on : down_req Runtime.Out.store -> scratch
  (** A scratch whose levels' buffers share [store]; [scratch ()] is
      this on a fresh one. *)
end

(** The bottom of a stack: one sublayer, run by its own handlers. It is
    {!Runtime.Level}, the level {!Runtime.Make} runs: a step writes the
    list its handler returns to the level's buffer. *)
module Last (M : SUBLAYER) :
  STACK
    with type t = M.t
     and type up_req = M.up_req
     and type up_ind = M.up_ind
     and type down_req = M.down_req
     and type down_ind = M.down_ind
     and type parts = M.t

(** [Seam (U) (P) (L)]: the sublayer [U] over the stack [L], the
    boundary between them watched by a probe of type [P.t]. Its state is
    one record holding [U]'s state, the probe and [L]'s state, updated in
    place by each step; [upper] and [lower] read it. *)
module Seam
    (U : SUBLAYER)
    (P : TAP with type up_req = U.down_req and type up_ind = U.down_ind)
    (L : STACK with type up_req = U.down_req and type up_ind = U.down_ind) : sig
  include
    STACK
      with type up_req = U.up_req
       and type up_ind = U.up_ind
       and type down_req = L.down_req
       and type down_ind = L.down_ind
       and type parts = U.t * P.t probe * L.parts

  val upper : t -> U.t
  val lower : t -> L.t
end

val memo : ('m -> 'd) -> 'm -> 'd
(** [memo declare] is [declare] made once per argument, compared
    physically: for a stack declared over a first-class module, so that
    every endpoint of one module shares the declaration and with it the
    scratch {!Run} makes per engine. It keeps the last few declarations;
    one it dropped is made again. *)

(** A declared stack under the simulator: {!Runtime.Drive} over the
    drain above, with the wiring done at [create]. *)
module Run (S : STACK) : sig
  type t

  val create :
    Sim.Engine.t ->
    ins:Instrument.t ->
    name:string ->
    transmit:(S.down_req -> unit) ->
    deliver:(S.up_ind -> unit) ->
    S.parts ->
    t
  (** One endpoint, on the declaration's scratch for [engine]. [name]
      keys its probes' monitors and is the track its [Note]s are
      recorded on in [ins.tracer]; with cells, [app] and [wire] charge
      the excursions out of the stack. *)

  val state : t -> S.t
  val from_above : t -> S.up_req -> unit
  val from_below : t -> S.down_ind -> unit
  val halt : t -> unit
end
