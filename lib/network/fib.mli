(** The forwarding information base: a longest-prefix-match binary trie.

    Forwarding is the top network sublayer (Figure 4); its only coupling
    to route computation is this table — route computation calls
    {!insert}/{!remove}, the data path calls {!lookup}, and harness code
    reads the table with {!find}. Swapping the routing protocol cannot
    touch forwarding because this narrow interface is all they share. *)

type t

val create : ?stats:Sublayer.Stats.scope -> unit -> t
(** Counters (when [stats] is given): [inserts], [removes], [lookups],
    [misses]. *)

val insert : t -> Addr.prefix -> int -> unit
(** [insert t prefix ifindex] installs or replaces a route. *)

val remove : t -> Addr.prefix -> unit
(** No-op if absent. *)

val lookup : t -> Addr.t -> int option
(** Longest-prefix-match next-hop interface, counted in [lookups] (and
    [misses] when there is none): the data path's lookup. *)

val find : t -> Addr.t -> int option
(** {!lookup} without the counters, for code that inspects the table
    rather than forwards through it ({!Topology.fib_path}). *)

val size : t -> int
val entries : t -> (Addr.prefix * int) list
(** Sorted by (prefix net, len). *)
