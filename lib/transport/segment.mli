(** The sublayered TCP header of Figure 6.

    Each sublayer owns its own header fields and its own codec; a segment
    on the wire is the onion [dm | cm | rd | osr | payload]. A sublayer's
    codec reads and writes {e only} its own fields and treats everything
    after them as an opaque payload — test T3 holds by construction, and
    {!layout} lets tests audit the bit-level field map.

    Each header has exactly one writer and one reader. [write_x] returns
    the header's exact bytes (big-endian stores, every field masked to
    its width); a segment is built by {!Bitkit.Wirebuf.push}ing them onto
    the payload, innermost first. [decode_x_slice] checks the length
    once, reads the fields in place and hands back a zero-copy view of
    the rest; it returns [None] on a short view and never raises.

    Sequence and acknowledgement numbers are absolute 32-bit values
    ([ISN + 1 + byte offset], as in standard TCP) so that the {!Shim} can
    translate to the RFC 793 header without arithmetic on hidden state. *)

(** {1 DM: demultiplexing ("essentially UDP")} *)

type dm = { src_port : int; dst_port : int }

val dm_header_bytes : int
val write_dm : dm -> string
val decode_dm_slice : Bitkit.Slice.t -> (dm * Bitkit.Slice.t) option
val peek_ports : Bitkit.Slice.t -> (int * int) option
(** Ports of a wire segment without consuming it (the mux's view). *)

(** {1 CM: connection management} *)

type cm_flags = { syn : bool; ack : bool; fin : bool; rst : bool }

val no_cm_flags : cm_flags

type cm = {
  flags : cm_flags;
  isn_local : int;   (** sender's ISN (32-bit) *)
  isn_remote : int;  (** sender's view of the peer's ISN; 0 if unknown *)
}

val cm_header_bytes : int
val write_cm : cm -> string
val decode_cm_slice : Bitkit.Slice.t -> (cm * Bitkit.Slice.t) option

(** {1 RD: reliable delivery} *)

type sack_block = { sack_start : int; sack_end : int }
(** Received byte range [start, end) as absolute sequence numbers. *)

type rd = {
  seq : int;         (** absolute, meaningful iff [has_data] *)
  ack : int;         (** absolute, meaningful iff [has_ack] *)
  len : int;         (** segment extent in sequence space (16-bit) *)
  has_data : bool;
  has_ack : bool;
  sacks : sack_block list;  (** at most 3 *)
}

val rd_header_bytes : int
(** Fixed part, without SACK blocks. *)

val write_rd : rd -> string
(** [rd_header_bytes + 8 * List.length sacks] bytes; raises
    [Invalid_argument] on more than 3 SACK blocks. *)

val decode_rd_slice : Bitkit.Slice.t -> (rd * Bitkit.Slice.t) option

(** {1 OSR: ordering, segmenting and rate control} *)

type osr = {
  window : int;      (** receive window in bytes, 16-bit *)
  ecn_echo : bool;
  ecn_ce : bool;
}

val default_osr : osr
val osr_header_bytes : int
val write_osr : osr -> string
val decode_osr_slice : Bitkit.Slice.t -> (osr * Bitkit.Slice.t) option

val decode_osr_header : Bitkit.Slice.t -> osr option
(** [decode_osr_slice]'s header without the view past it, for a reader
    that needs only the fields (OSR reading the block an ack carries). *)

val mark_ce : Bitkit.Slice.t -> Bitkit.Slice.t
(** Set the CE (congestion-experienced) bit in the OSR header of a full
    wire segment, leaving everything else intact — the action of an
    ECN-capable queue. Control segments pass through unchanged. Wire this
    as a channel's [?mark]. *)

(** {1 Whole-header audit} *)

val layout : Sublayer.Layout.t
(** The Figure 6 bit map (fixed fields, zero SACK blocks), with one owner
    per field; {!Sublayer.Layout} guarantees the owners' bit ranges are
    disjoint. *)

val header_bytes : int
(** Total fixed header: [dm + cm + rd + osr]. *)

val audit_tx : bool ref
(** With the audit armed, {!audit_wirebuf} (called by DM on every
    transmitted segment) checks the wirebuf's header stack against
    {!layout} via {!Sublayer.Layout.check_appendix_exn} — T3 asserted on
    the real wire path. Off by default; tests arm it. *)

val audit_wirebuf : Bitkit.Wirebuf.t -> unit
