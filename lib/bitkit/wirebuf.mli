(** A packet under construction: one payload slice plus a stack of
    already-packed sublayer headers, outermost first.

    This is the transmit half of the zero-copy data path. Each descending
    sublayer {!push}es its header bytes; nothing is concatenated until the
    packet reaches the wire and {!emit}/{!to_slice} lays headers and
    payload into a single buffer. Values are persistent: [push] returns a
    new wirebuf sharing the tail, so retransmit queues can safely hold a
    mid-stack view. Headers are packed strings (never closures), keeping
    wirebufs safe for structural comparison. *)

type t

val empty : t
val of_slice : Slice.t -> t
val of_string : string -> t
val length : t -> int
(** Total bytes: headers plus payload. *)

val push : t -> owner:string -> string -> t
(** [push t ~owner header] makes [header] the new outermost header:
    the exact bytes its sublayer's writer returned, always a whole number
    of bytes. Nothing is copied. [owner] names the sublayer for
    {!appendices} audits. *)

val emit : t -> string
(** Lay the packet into one fresh buffer: headers outermost-first, then
    the payload, blitted exactly once. *)

val emit_into : t -> Bytes.t -> int -> unit
(** [emit_into t b pos] lays the packet into [b] at [pos] — the copies
    are charged here, so do not charge {!copy_cost} again. The caller
    guarantees [length t] bytes of room. *)

val emit_pooled : t -> Pool.t -> int * Slice.t
(** Emit into a pool slot: returns [(slot, view)] where [view] is valid
    until [slot] is released. A headerless whole-string payload skips the
    pool entirely (zero-copy, [slot = Pool.no_slot]); an exhausted pool
    falls back to a heap {!emit} (counted as an overrun, also
    [Pool.no_slot]). *)

val fold_chunks : t -> init:'a -> f:('a -> string -> int -> int -> 'a) -> 'a
(** Fold [f acc base pos len] over the packet's byte regions in exact
    emit order — each header outermost-first, then the payload — without
    materialising anything. The substrate for chain digests. *)

val emit_cost : t -> int
(** Bytes {!emit}/{!emit_into} charge: always {!length}, a physical copy
    of every byte — unlike {!copy_cost}, which is what the [to_string]
    fast paths charge. *)

val to_slice : t -> Slice.t
(** Like {!emit} but returns the payload slice unchanged (zero-copy)
    when no headers have been pushed. *)

val to_string : t -> string
(** Like {!to_slice} but materialized. *)

val copy_cost : t -> int
(** Bytes {!to_string}/{!emit} would charge to the copy counter:
    {!Slice.copy_cost} of the payload when no headers are pushed,
    {!length} otherwise. Lets callers attribute the materialisation to a
    local counter without bracketing the shared process-wide atomic. *)

val appendices : t -> (string * int) list
(** [(owner, bits)] per pushed header, outermost first — the input to
    {!Sublayer.Layout.check_appendix}. A header's bits are 8 times its
    length. *)

val outer_header : t -> Slice.t option
(** The outermost pushed header's packed bytes, if any (zero-copy). *)
