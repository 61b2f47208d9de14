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

val map : ('a -> 'b) -> 'a t -> 'b t
(** Map every element, keeping the order. [f] should be pure: the order
    in which it is applied is unspecified. *)

val find_opt : ('a -> bool) -> 'a t -> 'a option
(** The oldest element satisfying the predicate. *)

val split_while : ('a -> bool) -> 'a t -> 'a list * 'a t
(** [split_while p q] takes the longest prefix of [q] whose elements
    satisfy [p], oldest first, and returns it with the queue after it. *)
