(** The sublayered TCP with Watson timer-based connection management:
    [Osr / Rd / Cm_timer / Dm] — {!Tcp_sublayered}'s declaration with
    only the CM module swapped (experiment E10, whole-sublayer case). *)

type t

val create :
  Sim.Engine.t ->
  ?ins:Sublayer.Instrument.t ->
  ?idle_timeout:float ->
  name:string ->
  Config.t ->
  local_port:int ->
  remote_port:int ->
  transmit:(Bitkit.Slice.t -> unit) ->
  events:(Iface.app_ind -> unit) ->
  t
(** [idle_timeout] defaults to 6 s of virtual time (above the maximum RTO, so loss recovery is never mistaken for a dead peer). *)

val listen : t -> unit
val from_wire : t -> Bitkit.Slice.t -> unit
val factory : ?idle_timeout:float -> unit -> Host.factory
