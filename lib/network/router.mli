(** A router: the three network sublayers of Figure 4 declared as one
    {!Sublayer.Compose} stack and run by {!Sublayer.Compose.Run}:
    {[
      Compose.Seam (Forwarding) (P_fwd)
        (Compose.Seam (P) (P_hello) (Compose.Last (Hello)))
    ]}
    forwarding (the {!Fib} plus the data path) over route computation
    ([P], any {!Routing.factory}) over neighbor determination
    ({!Hello}). The stack is declared once per factory value
    ({!Sublayer.Compose.memo}), by the first router that runs it, so the
    routers of one protocol share its declaration and its buffers.

    The three communicate only through narrow interfaces: hello events
    feed route computation; route computation writes the FIB; the data
    path reads it. They also use distinct frame kinds on the wire
    ({!Packet.frame}), satisfying test T3 with "completely different
    packets". Every timer they arm is the runtime's. *)

module C := Sublayer.Compose

(** The taps of the two seams, built with {!Sublayer.Compose.PROBE.cells}:
    they charge the seams' allocation cells and observe nothing,
    monitored or not. *)
module P_fwd : C.PROBE with type req = int * Packet.frame and type ind = Routing.ind
module P_hello : C.PROBE with type req = int * Packet.frame and type ind = Hello.event

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
  ?ins:Sublayer.Instrument.t ->
  addr:Addr.t ->
  routing:Routing.factory ->
  deliver:(Packet.t -> unit) ->
  unit ->
  t
(** The router starts at once: route computation arms its periodic
    timer here, HELLOs start as links are attached.

    With [ins.stats], each network sublayer registers its counters
    under its own scope: [router.*] (the forwarding path), [fib.*],
    [hello.*], and a scope named after the routing protocol (e.g.
    [distance-vector.*]). With [ins.telemetry] too, each of [router],
    [hello] and the protocol's scope gets an allocation cell, as do
    [app] and [wire].

    With [ins.tracer] (share one across the topology), the origin of
    every data packet opens a "transit" span on the track named by its
    address; intermediate routers add "forward" instants parented on it,
    and the terminating router closes it with detail [delivered],
    [no_route] or [ttl_expired]. The runtime records a [halted] note on
    the same track at {!stop}.

    With [ins.monitors] (share one across the topology), a
    {!Monitor.Specs.fib} instance keyed on the router's address checks
    the route-computation⇄forwarding interface: FIB writes and data-path
    lookups must stay consistent with the table size. *)

val add_interface : t -> transmit:(Packet.frame -> unit) -> int
(** Attach a link; returns the interface index and starts HELLOs on it. *)

val on_frame : t -> ifindex:int -> Packet.frame -> unit
(** Wire this as the link's delivery callback. *)

val originate : t -> dst:Addr.t -> Bitkit.Slice.t -> unit
(** Send a locally-generated data packet. *)

val fib : t -> Fib.t
val neighbors : t -> (int * Addr.t) list
val stats : t -> stats
(** Snapshot of the forwarding-path counters (fresh record per call). *)

val stop : t -> unit
(** Halt the router's runtime: every timer is cancelled, and a stopped
    router sends nothing more, drops frames that arrive afterwards and
    drops the packets it is asked to originate. *)
