(** Link-state route computation as a {!Routing.S}:
    sequence-numbered LSP flooding, database sync on adjacency-up, and
    shortest-path-first (unit-cost Dijkstra = BFS) with a two-way
    connectivity check. Experiment E2 swaps this against
    {!Distance_vector} to show that the forwarding sublayer is untouched
    by the change. A router refloods its own LSP every 5 s. *)

val factory : Routing.factory
(** The protocol, made once: every router declared with it shares one
    stack declaration. *)
