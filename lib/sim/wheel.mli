(** Hierarchical timing wheel — the engine's default event queue.

    Two levels of 1024 buckets of 1 ms ticks (≈1 s and ≈17 min of
    horizon), a "front" heap holding already-reached
    ticks in exact [(time, seq)] order, and an overflow heap for timers
    beyond the second level. Schedule and cancel are O(1) for the near
    horizon; the firing order is identical to a binary heap ordered by
    [(time, insertion-seq)] ({!Eheap}), which {!Engine} keeps around as
    the reference backend. Peeking and popping return {!none} rather
    than an option, so dequeuing an event allocates nothing.

    Cancellation is lazy: a cancelled event stays bucketed (counted by
    the engine-shared [dead_in_heap] ref) until a drain or {!compact}
    sweeps it out. *)

type event = {
  time : float;
  seq : int;
  mutable fn : unit -> unit;
  mutable dead : bool;
  live : int ref;          (** engine-shared count of uncancelled events *)
  dead_in_heap : int ref;  (** engine-shared count of dead-but-queued *)
}

val none : event
(** The event no queue holds: what {!peek}, {!pop}, {!Eheap.top} and
    {!Eheap.pop} return when there is no event, so a dequeue allocates
    no option. Test for it with [==]. *)

(** Binary min-heap on [(time, seq)] — the wheel's front/overflow queues
    and the engine's reference backend. Each entry's [(time, seq)] key
    is kept beside it in flat arrays (the times unboxed), so ordering
    entries reads no event record. *)
module Eheap : sig
  type t

  val create : ?capacity:int -> unit -> t
  val size : t -> int
  (** Entries, dead included. *)

  val push : t -> event -> unit

  val top : t -> event
  (** The earliest entry, dead or not, left in place; {!none} when
      empty. *)

  val pop : t -> event
  (** Remove and return the earliest entry; {!none} when empty. *)

  val iter : t -> (event -> unit) -> unit

  val compact : t -> on_drop:(event -> unit) -> unit
  (** Drop dead entries in place ([on_drop] is called for each) and
      restore the heap property. *)
end

type t

val create : unit -> t

val add : t -> event -> unit

val peek : t -> horizon:float -> event
(** Earliest event whose tick is within [horizon]'s tick (its [time] may
    still exceed [horizon]: same tick, later within the slot — the
    caller compares times). {!none} means no event at or before that
    tick. The internal cursor never advances past [horizon]'s tick, so
    bounded peeks do not degrade later near-horizon scheduling. *)

val pop : t -> event
(** Remove and return the event the last {!peek} returned ({!none} when
    there is none). *)

val iter : t -> (event -> unit) -> unit
(** Every queued entry, dead included, in no particular order. *)

val total : t -> int
(** Entries queued, dead included (the compaction trigger input). *)

val compact : t -> unit
(** Sweep dead entries out of every bucket and heap. *)

val compactions : t -> int
