(** Declaring a stack: the one place that knows how sublayers join.

    A stack is declared top to bottom, one {!Seam} per boundary over a
    {!Last}, and run with {!Run}; the sublayered TCP of Figure 5 is
    {[
      module S =
        Seam (Osr) (Conform.P_osr_rd)
          (Seam (Rd) (Conform.P_rd_cm) (Seam (Cm) (Conform.P_pdu) (Last (Dm))))

      module R = Run (S)
    ]}
    Each level is the {!Machine.Seam} of its sublayer over the level
    below, so names, [Note] text, action order and per-PDU cost are the
    seams'. What a factory would otherwise wire by hand follows from the
    nesting:
    - one allocation cell per sublayer, under its {!SUBLAYER.scope};
    - each seam's probe, built with the cells of its two sides: above,
      the level's own sublayer; below, the top sublayer of the level
      beneath;
    - the runtime's {!Runtime.alloc_spec}: the top and bottom sublayers'
      cells for the entry points, and for a firing timer the cell of
      the sublayer whose level unwraps it — at a seam, [Left] is the
      level's own sublayer and [Right] goes one level deeper.

    Cells exist only when {!Instrument.attributed} holds; otherwise no
    cell, pair or spec is built and each probe is made without one. *)

(** A sublayer a stack can be declared with. *)
module type SUBLAYER = sig
  include Machine.S

  val scope : string
  (** The name its counters, spans and allocation cell are found under
      (level-prefixed by {!Instrument.scoped}). *)
end

type 'p probe = ?alloc:Alloc.pair -> Monitor.Runtime.t option -> conn:string -> 'p
(** A seam's probe constructor: given the seam's cell pair (absent when
    nothing is attributed), the monitors and the endpoint's name to key
    them by. Every transport [Conform] constructor is one. *)

(** A declared stack. *)
module type STACK = sig
  include Machine.S

  type parts
  (** What a factory hands over, top to bottom: each sublayer's initial
      state, and between two of them the probe constructor of their
      seam. *)

  val scopes : string array
  (** The sublayers' scopes, bottom first. *)

  val owner : timer -> int
  (** The index in {!scopes} of the sublayer that owns a timer. *)

  val build : Alloc.cell option array -> Monitor.Runtime.t option -> conn:string -> parts -> t
  (** [build cells monitors ~conn parts] is the stack's state, each
      probe made with the cells of its seam from [cells] (indexed as
      {!scopes}; empty when nothing is attributed). Probes are made
      bottom up. *)
end

(** The bottom of a stack: one sublayer. *)
module Last (M : SUBLAYER) :
  STACK
    with type t = M.t
     and type up_req = M.up_req
     and type up_ind = M.up_ind
     and type down_req = M.down_req
     and type down_ind = M.down_ind
     and type timer = M.timer
     and type parts = M.t

(** [Seam (U) (P) (L)]: the sublayer [U] over the stack [L], the
    boundary between them watched by a probe of type [P.t]. *)
module Seam
    (U : SUBLAYER)
    (P : Machine.TAP with type up_req = U.down_req and type up_ind = U.down_ind)
    (L : STACK with type up_req = U.down_req and type up_ind = U.down_ind) : sig
  include
    STACK
      with type up_req = U.up_req
       and type up_ind = U.up_ind
       and type down_req = L.down_req
       and type down_ind = L.down_ind
       and type timer = (U.timer, L.timer) Either.t
       and type parts = U.t * P.t probe * L.parts

  val upper : t -> U.t
  val lower : t -> L.t
end

(** A declared stack under the simulator: {!Runtime.Make} with the
    wiring above done at [create]. *)
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
  (** One endpoint. [name] keys its probes' monitors and is the track
      its [Note]s are recorded on in [ins.tracer]; with cells, [app] and
      [wire] charge the excursions out of the stack. *)

  val state : t -> S.t
  val from_above : t -> S.up_req -> unit
  val from_below : t -> S.down_ind -> unit
  val halt : t -> unit
end
