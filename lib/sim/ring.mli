(** A bounded ring of the most recent records.

    The one store behind the simulator's bounded observability records:
    {!Tracer}'s finished spans and {!Telemetry}'s samples. A push into a
    full ring evicts the oldest record, and the eviction is counted, so
    a reader always knows how much of the history it no longer has. *)

type 'a t

val create : capacity:int -> 'a -> 'a t
(** [create ~capacity blank] holds up to [capacity] records; [blank]
    fills the empty slots and is never returned. Raises
    [Invalid_argument] unless [capacity] is positive. *)

val push : 'a t -> 'a -> unit
(** Append a record, evicting the oldest when the ring is full. *)

val length : 'a t -> int
(** Records currently retained ([<= capacity]). *)

val recorded : 'a t -> int
(** Records ever pushed since creation or the last {!clear}. *)

val dropped : 'a t -> int
(** Records evicted so far: [recorded - length]. *)

val to_list : 'a t -> 'a list
(** The retained records, oldest first. *)

val last : 'a t -> int -> 'a list
(** The most recent [n] retained records, oldest first. *)

val newest : 'a t -> 'a option

val find_newest : 'a t -> ('a -> bool) -> 'a option
(** The most recent retained record satisfying the predicate, scanning
    newest first. *)

val clear : 'a t -> unit
(** Forget every record; [recorded] and [dropped] reset. *)
