(** Neighbor determination — the lowest network sublayer (Figure 4) — as
    a {!Sublayer.Compose.SUBLAYER}: a HELLO on every attached interface
    each second, a hold deadline of three seconds per neighbor, and
    up/down events to the route-computation sublayer above. Its PDU ({!Pdu.encode_hello}:
    a magic byte plus the sender's address) is read and written by this
    sublayer alone; every other frame passes through it untouched.

    Its timers belong to the runtime that runs it: one per interface for
    the next HELLO and one sweep, armed at the first interface, that
    expires the neighbors whose deadline passed. Halting the runtime
    stops them. *)

type wire = Start | Attach of int | Frame of int * Packet.frame
(** What reaches the router from below: it starts (passed up as
    {!Started}), a link is attached as an interface, a frame arrives on
    one. *)

type event =
  | Started | Neighbor_up of int * Addr.t | Neighbor_down of int * Addr.t
  | Received of int * Packet.frame  (** any frame but a HELLO *)

include
  Sublayer.Compose.SUBLAYER
    with type up_req = int * Packet.frame
     and type up_ind = event
     and type down_req = int * Packet.frame
     and type down_ind = wire

val initial : ?stats:Sublayer.Stats.scope -> now:(unit -> float) -> Addr.t -> t
(** [initial ~now self]: router [self]'s state. Counters (when [stats]
    is given): [hellos_sent], [hellos_received], [neighbor_ups],
    [neighbor_downs]. Malformed HELLOs are ignored. *)

val neighbors : t -> (int * Addr.t) list
(** Currently-alive (ifindex, peer) pairs. *)
