(** A fixed preallocated byte arena partitioned into equal slots, loaned
    by index and explicitly released — the lib_ethernet driver idiom
    applied to the zero-copy emit path. A loan request that cannot be
    satisfied (arena exhausted, or the requested length exceeds the slot
    size) returns {!no_slot} and bumps the overrun counter; the caller
    falls back to an ordinary heap allocation. Overruns are accounting,
    never failures.

    Slots are reference counted: {!loan} hands out one reference,
    {!retain} adds one (a channel keeping the bytes alive until
    delivery), and {!release} drops one, freeing the slot when the count
    reaches zero. {!defer_release} queues the drop until
    {!drain_deferred} runs — wire it to [Sim.Engine.after_event] so
    machine-held loans survive every action applied within the current
    simulation event, including reentrant cascades.

    Lifetime invariant: a {!slice} view of a slot is valid only while the
    slot is loaned. Releasing transfers the bytes back to the pool; in
    [~debug:true] pools the slot is poisoned on free so use-after-release
    reads surface as corrupt bytes in tests rather than silent aliasing.

    A pool is single-domain state. Sharded runs build one pool per shard
    and never send a slot-backed slice across domains — copy out first. *)

type t

val no_slot : int
(** [-1]: the sentinel returned when a loan falls back to the heap. *)

val create : ?debug:bool -> slots:int -> slot_bytes:int -> unit -> t
(** [debug] (default [false]) poisons released slots with [0xDE]. *)

val slots : t -> int
val slot_bytes : t -> int

val loan : t -> len:int -> int
(** Loan a slot able to hold [len] bytes. Returns the slot index with a
    reference count of one, or {!no_slot} (counting an overrun) when
    [len > slot_bytes] or no slot is free. *)

val buffer : t -> Bytes.t
(** The backing arena; write a loaned slot at [off t slot]. *)

val off : t -> int -> int
(** Byte offset of [slot] in {!buffer}. *)

val slice : t -> int -> len:int -> Slice.t
(** A slice viewing the first [len] bytes of a loaned slot. Valid until
    the slot is released. *)

val slot_of_slice : t -> Slice.t -> int option
(** Recover the slot a slice views, if its backing string is this pool's
    arena. This is how a transmit closure recognises a loan emitted by a
    machine further up and takes over its lifetime. *)

val retain : t -> int -> unit
(** Add a reference to a loaned slot. Raises [Invalid_argument] if the
    slot is not currently loaned. *)

val release : t -> int -> unit
(** Drop a reference; frees the slot at zero. Raises [Invalid_argument]
    on a slot that is not currently loaned (double release). *)

val defer_release : t -> int -> unit
(** Queue a {!release} to run at the next {!drain_deferred}. The slot
    stays valid (and counts as in use) until then. *)

val drain_deferred : t -> unit
(** Apply all queued deferred releases, oldest first. *)

val in_use : t -> int
val hwm : t -> int
val loans : t -> int
val releases : t -> int
val overruns : t -> int
