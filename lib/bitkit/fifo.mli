(** A persistent FIFO of two lists, O(1) amortised per element, so a
    queue that sees [n] elements costs O(n) in all. A persistent queue
    re-reverses its back list on every pop whose result is thrown away,
    so callers that may not take the element decide before they {!pop}
    (the ARQs check their window first). *)

type 'a t

val empty : 'a t
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> 'a t
(** Append at the back. *)

val pop : 'a t -> ('a * 'a t) option
(** The oldest element and the queue after it. *)

val map_shared : ('a -> 'a) -> 'a t -> 'a t
(** Map every element, keeping the order, and share what [f] leaves
    alone: an element [x] with [f x == x] stays in place, the list cells
    after the last element [f] changes in either half of the queue are
    kept, and the queue itself comes back when [f] changes nothing. So a
    map that changes [k] elements allocates for them and the cells
    before them in their half, never for the rest. [f] should be pure:
    the order in which it is applied is unspecified. *)

val find_opt : ('a -> bool) -> 'a t -> 'a option
(** The oldest element satisfying the predicate. A miss allocates
    nothing: the back half is searched where it stands, not reversed,
    so the predicate may also be applied to elements newer than the one
    returned. *)

val split_while : ('a -> bool) -> 'a t -> 'a list * 'a t
(** [split_while p q] takes the longest prefix of [q] whose elements
    satisfy [p], oldest first, and returns it with the queue after it. *)
