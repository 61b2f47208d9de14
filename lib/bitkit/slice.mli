(** Immutable string views: the currency of the zero-copy data path.

    A slice is [base] plus a window [\[off, off+len)]. Narrowing with
    {!sub} shares the base and costs nothing; only {!to_string}, {!blit}
    and {!concat} actually move bytes, and each such move is charged to a
    process-wide counter ({!copied_bytes}) so benchmarks can report exact
    bytes-copied-per-packet figures. The record is exposed read-only so
    header readers (such as [Transport.Segment.decode_dm_slice]) can
    load fields straight from [base] without a copy; never mutate [base]
    through other aliases. *)

type t = private { base : string; off : int; len : int }

val empty : t
val of_string : string -> t
(** Zero-copy whole-string view. *)

val make : string -> off:int -> len:int -> t
val length : t -> int
val is_empty : t -> bool
val get : t -> int -> char
val sub : t -> pos:int -> len:int -> t
(** Zero-copy narrowing; [pos] is relative to the slice. *)

val copy_cost : t -> int
(** Bytes {!to_string} would charge: [0] for a whole-string view,
    {!length} otherwise. Lets callers attribute a materialisation to a
    local counter without bracketing the shared {!copied_bytes} atomic
    (which other domains mutate concurrently in sharded runs). *)

val to_string : t -> string
(** Materializes the view. A whole-string view returns [base] without
    copying; anything narrower copies (and is counted). *)

val blit : t -> Bytes.t -> int -> unit
(** [blit t dst pos] copies the viewed bytes into [dst] (counted).

    Accounting rule, shared by every materialisation path: each physical
    byte copy is charged exactly once, at the operation that performs it.
    Views are free; {!to_string} of a whole-string view is free (it
    returns [base]); [blit] always moves bytes so it always charges —
    including blits into a pool slot, which is why callers emitting
    through {!Pool} must not ALSO charge {!copy_cost} for the same
    bytes. *)

val add_to_buffer : Buffer.t -> t -> unit
(** Append the viewed bytes to a buffer (counted): the app-ingest copy,
    without materialising an intermediate string. *)

val equal : t -> t -> bool
(** Content equality, copy-free. *)

val equal_string : t -> string -> bool
val concat : t list -> t
val hexdump : t -> string
val pp : Format.formatter -> t -> unit

(** {1 Copy accounting} *)

val note_copy : int -> unit
(** Charge [n] bytes to the copy counter, for copies made through
    [Bytes] directly (by {!Blockbuf}, {!Wirebuf} and [Transport.Wire]).
    The counter is atomic, so domains running shards in parallel never
    lose updates. *)

val copied_bytes : unit -> int
val reset_copied : unit -> unit
