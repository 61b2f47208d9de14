(** Path-vector route computation (BGP-style), a {!Routing.S} like
    {!Distance_vector} and {!Link_state}
    — the third interchangeable mechanism for the route-computation
    sublayer of Figure 4.

    Advertisements carry the full path of router addresses to each
    destination; a router discards any route whose path already contains
    itself, which prevents loops {e structurally} instead of by
    counting-to-infinity. Shorter paths are preferred; ties break on the
    lexicographically smaller next hop (deterministic convergence). A
    router advertises every 2 s, batches triggered updates for 50 ms and
    discards paths of more than 32 routers. *)

val factory : Routing.factory
(** The protocol, made once: every router declared with it shares one
    stack declaration. *)
