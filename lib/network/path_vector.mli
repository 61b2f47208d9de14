(** Path-vector route computation (BGP-style), a {!Routing.S} like
    {!Distance_vector} and {!Link_state}
    — the third interchangeable mechanism for the route-computation
    sublayer of Figure 4.

    Advertisements carry the full path of router addresses to each
    destination; a router discards any route whose path already contains
    itself, which prevents loops {e structurally} instead of by
    counting-to-infinity. Shorter paths are preferred; ties break on the
    lexicographically smaller next hop (deterministic convergence). *)

type config = {
  advertise_interval : float;
  triggered_delay : float;
  max_path : int;  (** routes longer than this are discarded *)
}

val default_config : config

val factory : ?config:config -> unit -> Routing.factory
