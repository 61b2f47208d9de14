(** A message-mode transport endpoint: the {!Msg} sublayer declared over
    the {e unchanged} RD/CM/DM stack — the top sublayer of Figure 5
    replaced wholesale (experiment E15). Compare with {!Tcp_sublayered},
    whose declaration differs only in its top module. *)

type t

val create :
  Sim.Engine.t ->
  ?ins:Sublayer.Instrument.t ->
  name:string ->
  Config.t ->
  local_port:int ->
  remote_port:int ->
  transmit:(Bitkit.Slice.t -> unit) ->
  events:(Msg.up_ind -> unit) ->
  t
(** [ins] bundles the instruments as in {!Tcp_sublayered.create}, with
    [msg.*] in place of [osr.*]. *)

val connect : t -> unit
val listen : t -> unit
val send : t -> string -> unit
(** Send one message (up to 65535 bytes); messages are delivered whole,
    exactly once, but not necessarily in send order. *)

val from_wire : t -> Bitkit.Slice.t -> unit
val messages_sent : t -> int
val finished : t -> bool
