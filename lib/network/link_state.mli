(** Link-state route computation as a {!Routing.S}:
    sequence-numbered LSP flooding, database sync on adjacency-up, and
    shortest-path-first (unit-cost Dijkstra = BFS) with a two-way
    connectivity check. Experiment E2 swaps this against
    {!Distance_vector} to show that the forwarding sublayer is untouched
    by the change. *)

type config = { refresh_interval : float }

val default_config : config

val factory : ?config:config -> unit -> Routing.factory
