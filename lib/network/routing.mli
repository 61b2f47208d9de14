(** The narrow interface between the route-computation sublayer and its
    neighbours in the stack (Figure 4).

    Downward it receives neighbor up/down events from the neighbor-
    determination sublayer and exchanges its own PDUs with peer routers;
    upward it only ever calls [install]/[uninstall] on the forwarding
    table. A routing protocol is a {!factory}; {!Distance_vector} and
    {!Link_state} both implement it, which is what lets experiment E2 swap
    them without touching any other sublayer. *)

type instance = {
  rname : string;
  neighbor_up : ifindex:int -> Addr.t -> unit;
  neighbor_down : ifindex:int -> Addr.t -> unit;
  on_pdu : ifindex:int -> string -> unit;
      (** A routing PDU arriving from the neighbor on [ifindex]. *)
  routes : unit -> (Addr.t * int) list;
      (** Current (destination, interface) view, for inspection. *)
  stop : unit -> unit;
      (** Cancel the protocol's periodic and triggered timers: a stopped
          instance advertises nothing more. *)
}

type env = {
  engine : Sim.Engine.t;
  self : Addr.t;
  send : int -> string -> unit;  (** send a routing PDU on an interface *)
  install : Addr.t -> int -> unit;  (** (re)install a host route *)
  uninstall : Addr.t -> unit;
  stats : Sublayer.Stats.scope;
      (** the protocol instance's own counter scope, named after the
          protocol; the router also counts route-install churn here *)
}

type factory = { protocol : string; make : env -> instance }
