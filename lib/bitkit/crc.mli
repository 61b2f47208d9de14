(** Generic table-driven cyclic redundancy checks.

    The error-detection sublayer of the data link (paper §2.1) is the
    canonical example of sublayer replaceability: "go from say CRC-32 to
    CRC-64 without changing other sublayers". This module provides the CRC
    engine and the standard parameterisations used by those experiments.

    Widths from 8 to 64 bits are supported; [refin] must equal [refout]
    (true of every catalogued CRC we use).

    One word-at-a-time kernel serves every width and both bit orders: it
    folds eight input bytes per step through eight tables of unboxed
    words (slicing-by-8), the MSB-first orders run as byte-swapped
    registers so that they share the reflected orders' loop, and an
    {!update} allocates nothing but its boxed result. The API and every
    digest are those of the byte-at-a-time table engine it replaced,
    which the tests keep as their oracle. *)

type params = {
  name : string;
  width : int;
  poly : int64;
  init : int64;
  refin : bool;
  refout : bool;
  xorout : int64;
  check : int64;  (** expected CRC of "123456789", for self-test *)
}

type t

val make : params -> t
(** Builds the kernel's eight 256-entry tables (16 KiB) and the initial
    register for [params]. *)

val params : t -> params

val digest : t -> string -> int64
(** [digest t s] is the CRC of [s]. *)

val digest_sub : t -> string -> int -> int -> int64
(** [digest_sub t s pos len] is the CRC of the slice [s.[pos..pos+len-1]]. *)

val self_test : t -> bool
(** [self_test t] checks [digest t "123456789" = params.check]. *)

(** {1 Streaming form}

    [finish t (update t (init t) s pos len)] equals [digest_sub t s pos
    len], and consecutive [update]s digest a chain of byte regions as if
    they were one flat buffer — the substrate of the chain-digest
    detectors, which fold over a wirebuf's headers and payload without
    flattening them. *)

val init : t -> int64
val update : t -> int64 -> string -> int -> int -> int64
val finish : t -> int64 -> int64

(** Catalogue of standard CRCs. *)

(** CRC-8 (SMBus, poly 0x07); CRC-16/CCITT-FALSE (0x1021); CRC-16/ARC
    (reflected, 0x8005); CRC-32/ISO-HDLC (zlib); CRC-32C (Castagnoli);
    CRC-64/XZ (reflected); CRC-64/ECMA-182 (unreflected). *)

val crc8 : params
val crc16_ccitt : params
val crc16_arc : params
val crc32 : params
val crc32c : params
val crc64_xz : params
val crc64_ecma : params

val all : params list
