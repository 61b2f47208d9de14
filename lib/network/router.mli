(** A router composed from the three network sublayers of Figure 4:
    neighbor determination ({!Hello}), route computation (any
    {!Routing.factory}) and forwarding ({!Fib} + this module's data path).

    The three communicate only through narrow interfaces: hello events
    feed route computation; route computation writes the FIB; the data
    path reads it. They also use distinct frame kinds on the wire
    ({!frame}), satisfying test T3 with "completely different packets". *)

type frame =
  | Hello_pdu of string
  | Routing_pdu of string
  | Data of Packet.t

val frame_size : frame -> int

type stats = {
  mutable forwarded : int;
  mutable delivered : int;
  mutable originated : int;
  mutable no_route : int;
  mutable ttl_expired : int;
}

type t

val create :
  Sim.Engine.t ->
  ?hello_config:Hello.config ->
  ?stats:Sublayer.Stats.registry ->
  ?tracer:Sim.Tracer.t ->
  ?monitors:Monitor.Runtime.t ->
  addr:Addr.t ->
  routing:Routing.factory ->
  deliver:(Packet.t -> unit) ->
  unit ->
  t
(** When [stats] is given, each network sublayer registers its counters
    under its own scope: [router.*] (the forwarding path), [fib.*],
    [hello.*], and a scope named after the routing protocol (e.g.
    [distance-vector.*]).

    When [tracer] is given (share one across the topology), the origin of
    every data packet opens a "transit" span on the track named by its
    address; intermediate routers add "forward" instants parented on it,
    and the terminating router closes it with detail [delivered],
    [no_route] or [ttl_expired].

    When [monitors] is given (share one across the topology), a
    {!Monitor.Specs.fib} instance keyed on the router's address checks
    the route-computation⇄forwarding interface: FIB writes and data-path
    lookups must stay consistent with the table size. *)

val addr : t -> Addr.t

val add_interface : t -> transmit:(frame -> unit) -> int
(** Attach a link; returns the interface index and starts HELLOs on it. *)

val on_frame : t -> ifindex:int -> frame -> unit
(** Wire this as the link's delivery callback. *)

val originate : t -> dst:Addr.t -> Bitkit.Slice.t -> unit
(** Send a locally-generated data packet. *)

val fib : t -> Fib.t
val routing : t -> Routing.instance
val neighbors : t -> (int * Addr.t) list
val stats : t -> stats
(** Snapshot of the forwarding-path counters (fresh record per call). *)

val stop : t -> unit
(** Stop neighbor determination and route computation, cancelling every
    timer they armed. A stopped router sends nothing more and drops
    frames that arrive afterwards. *)
