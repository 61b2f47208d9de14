(** The forwarding information base: a longest-prefix-match binary trie.

    Forwarding is the top network sublayer (Figure 4); its only coupling
    to route computation is this table — route computation calls
    {!insert}/{!remove}, the data path calls {!lookup}. Swapping the
    routing protocol cannot touch forwarding because this narrow interface
    is all they share. *)

type t

val create : ?stats:Sublayer.Stats.scope -> unit -> t
(** Counters (when [stats] is given): [inserts], [removes], [lookups],
    [misses]. *)

val insert : t -> Addr.prefix -> int -> unit
(** [insert t prefix ifindex] installs or replaces a route. *)

val remove : t -> Addr.prefix -> unit
(** No-op if absent. *)

val lookup : t -> Addr.t -> int option
(** Longest-prefix-match next-hop interface. *)

val size : t -> int
val entries : t -> (Addr.prefix * int) list
(** Sorted by (prefix net, len). *)
