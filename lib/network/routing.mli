(** Route computation — the middle network sublayer of Figure 4 — and
    the narrow interfaces on either side of it.

    Below, it hears {!Hello.event}s and sends [(ifindex, frame)]
    requests: its own PDUs, and forwarding's packets passed through.
    Above, it only ever tells forwarding to {!Install} or {!Uninstall} a
    host route, and hands up the data packets that arrived. A protocol
    is a first-class module {!S}, the middle level of every router's
    stack declaration; {!Distance_vector}, {!Link_state} and
    {!Path_vector} are three, which is what lets experiment E2 swap them
    without touching any other sublayer. *)

type ind = Install of Addr.t * int | Uninstall of Addr.t | Data of Packet.t

type timer =
  | Periodic  (** periodic advertisement or refresh, armed on {!Hello.Started} *)
  | Trigger  (** a triggered update, batching every change made before it fires *)

module type S = sig
  include
    Sublayer.Compose.SUBLAYER
      with type up_req = int * Packet.frame
       and type up_ind = ind
       and type down_req = int * Packet.frame
       and type down_ind = Hello.event
       and type timer = timer

  val initial : Sublayer.Stats.scope -> Addr.t -> t
  (** [initial scope self]: the state at router [self], counting in
      [scope] (named after the protocol), [routes_installed] and
      [routes_uninstalled] included. *)
end

type factory = (module S)

(** {1 Writing a protocol}

    A protocol's handlers collect one step's actions on its {!port};
    {!Make} returns them in the order they were made. *)

type port

val port : Sublayer.Stats.scope -> port
val send : port -> int -> string -> unit
val install : port -> Addr.t -> int -> unit
val uninstall : port -> Addr.t -> unit
val set_timer : port -> timer -> float -> unit

module type PROTOCOL = sig
  val name : string  (** also the scope its counters are found under *)

  type t

  val initial : Sublayer.Stats.scope -> Addr.t -> t
  val port : t -> port
  val start : t -> unit
  val neighbor_up : t -> ifindex:int -> Addr.t -> unit
  val neighbor_down : t -> ifindex:int -> Addr.t -> unit
  val on_pdu : t -> ifindex:int -> string -> unit
  val on_timer : t -> timer -> unit
end

module Make (P : PROTOCOL) : S with type t = P.t
