(** Sets of received byte ranges (disjoint half-open intervals), used by
    RD's receiver for exactly-once dedup, cumulative-ack computation and
    SACK block generation. *)

type t

val empty : t
val is_empty : t -> bool

val add : t -> int -> int -> t * bool
(** [add t lo hi] inserts [\[lo, hi)]; the flag is [true] iff any byte was
    new. [lo >= hi] is a no-op. *)

val cumulative : t -> int
(** End of the interval starting at 0 (0 if none): the cumulative-ack
    point. *)

val covers : t -> int -> int -> bool
(** Is [\[lo, hi)] fully contained? *)

val intervals : t -> (int * int) list
(** Ascending; the ones above {!cumulative} are the SACK candidates. *)

val total_bytes : t -> int
