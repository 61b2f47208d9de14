type instance = {
  rname : string;
  neighbor_up : ifindex:int -> Addr.t -> unit;
  neighbor_down : ifindex:int -> Addr.t -> unit;
  on_pdu : ifindex:int -> string -> unit;
  routes : unit -> (Addr.t * int) list;
  stop : unit -> unit;
}

type env = {
  engine : Sim.Engine.t;
  self : Addr.t;
  send : int -> string -> unit;
  install : Addr.t -> int -> unit;
  uninstall : Addr.t -> unit;
  stats : Sublayer.Stats.scope;
      (* The protocol's own counter scope (named after the protocol);
         the router also counts [routes_installed]/[routes_uninstalled]
         here, since install churn is the protocol's doing. *)
}

type factory = { protocol : string; make : env -> instance }
