(** Distance-vector route computation (RIP-style Bellman–Ford) as a
    {!Routing.S}: split horizon with poisoned reverse, triggered updates,
    infinity = 16. *)

type config = {
  advertise_interval : float;
  triggered_delay : float;  (** batching delay for triggered updates *)
  infinity_metric : int;
}

val default_config : config

val factory : ?config:config -> unit -> Routing.factory
