(** Neighbor determination — the lowest network sublayer (Figure 4):
    periodic HELLO messages on every interface, a hold timer per neighbor,
    and up/down notifications to the route-computation sublayer above.
    Its PDU ({!Pdu.encode_hello}: a magic byte plus the sender's address)
    is read and written by this sublayer alone. *)

type config = {
  interval : float;      (** seconds between HELLOs *)
  hold_multiplier : int; (** neighbor declared down after this × interval *)
}

val default_config : config

type event = Up of { ifindex : int; peer : Addr.t } | Down of { ifindex : int; peer : Addr.t }

type t

val create :
  Sim.Engine.t ->
  ?stats:Sublayer.Stats.scope ->
  config ->
  self:Addr.t ->
  send:(int -> string -> unit) ->
  notify:(event -> unit) ->
  t
(** Counters (when [stats] is given): [hellos_sent], [hellos_received],
    [neighbor_ups], [neighbor_downs]. *)

val add_interface : t -> int -> unit
(** Start HELLOs on an interface. *)

val on_pdu : t -> ifindex:int -> string -> unit
(** A HELLO PDU received on an interface. Malformed PDUs are ignored. *)

val neighbors : t -> (int * Addr.t) list
(** Currently-alive (ifindex, peer) pairs. *)

val stop : t -> unit
(** Cancel all timers (end of simulation). One timer per interface and
    one sweep are armed at any time, so this cancels everything. *)
