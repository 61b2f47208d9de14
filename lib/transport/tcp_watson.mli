(** The sublayered TCP with Watson timer-based connection management:
    [Osr / Rd / Cm_timer / Dm] — {!Tcp_sublayered}'s declaration with
    only the CM module swapped (experiment E10, whole-sublayer case). *)

type t

val create :
  Sim.Engine.t ->
  ?ins:Sublayer.Instrument.t ->
  name:string ->
  Config.t ->
  local_port:int ->
  remote_port:int ->
  transmit:(Bitkit.Slice.t -> unit) ->
  events:(Iface.app_ind -> unit) ->
  t
(** A connection closes after 6 s of virtual time with nothing
    outstanding: above the maximum RTO, so loss recovery is never
    mistaken for a dead peer. *)

val listen : t -> unit
val from_wire : t -> Bitkit.Slice.t -> unit
val factory : Host.factory
