(** Whole-network simulation harness: builds a topology of {!Router}s over
    impaired channels, injects traffic and failures, and validates the
    control plane against a Floyd–Warshall reference. *)

type t

val engine : t -> Sim.Engine.t
val router : t -> int -> Router.t

(** Canonical edge lists. Nodes are numbered 0..n-1. *)

val line : int -> (int * int) list
val ring : int -> (int * int) list
val grid : int -> int -> (int * int) list
val random : n:int -> extra:int -> seed:int -> (int * int) list
(** A random spanning tree plus [extra] random chords — always connected. *)

val build :
  Sim.Engine.t ->
  ?channel:Sim.Channel.config ->
  ?ins:Sublayer.Instrument.t ->
  routing:Routing.factory ->
  n:int ->
  (int * int) list ->
  t
(** Every directed edge is wired as a {!Sublayer.Link} over its channel
    (interfaces transmit into links, links deliver to the far router).
    [ins] bundles the instruments: [ins.tracer] is shared by every
    router so packet transit spans opened at the origin are closed
    wherever the packet terminates; [ins.monitors] is likewise shared —
    each router attaches a router⇄FIB conformance monitor keyed on its
    address; [ins.stats] is one registry shared by all routers; with
    [ins.telemetry] too, the topology registers it once as the [net.*]
    sampling source. *)

val send : t -> src:int -> dst:int -> string -> unit
(** Originate a data packet at node [src] for node [dst]'s address. *)

val received : t -> int -> Packet.t list
(** Data packets delivered locally at a node, oldest first. *)

val clear_received : t -> unit

val fail_link : t -> int -> int -> unit
(** Make both directions lose everything (routers detect it via hello
    hold timers). *)

val heal_link : t -> int -> int -> unit

val flap_link : t -> int -> int -> at:float -> duration:float -> unit
(** Schedule a failure at virtual time [at] and the matching heal
    [duration] seconds later (both on the topology's engine). *)

val alive_edges : t -> (int * int) list

val reference_distances : n:int -> (int * int) list -> int array array
(** All-pairs hop counts (max_int = unreachable) by Floyd–Warshall. *)

val fib_path : t -> src:int -> dst:int -> int list option
(** Walk the FIBs from [src] toward [dst] without touching the engine;
    [None] on a lookup miss, a loop, or TTL-style exhaustion. The list
    includes both endpoints. *)

val converged : t -> bool
(** Every connected (per {!alive_edges}) pair has a FIB path of exactly
    the reference length, and no disconnected pair has one. *)

val converge : ?step:float -> t -> float option
(** Run the simulation until {!converged} (checked every [step] seconds of
    virtual time); returns the virtual time of convergence, or [None]
    after 300 virtual seconds without it. *)

val routing_traffic_bytes : t -> int
(** Total control-plane bytes (hello + routing PDUs) sent so far. *)

val stop : t -> unit
(** {!Router.stop} every router: once the deliveries in flight have
    landed, the topology leaves no event pending. *)
