(** Continuous-stream deframing.

    {!Framer} assumes the channel delivers one frame's bits at a time; a
    real bit-synchronous link delivers an unpunctuated stream. This is
    the receiver-side framing sublayer for that case: feed it arbitrary
    chunks of bits and it scans for flag-delimited, stuffed frames —
    tolerating leading noise, inter-frame idle bits, and back-to-back
    frames that share a single flag (as HDLC permits). Bodies that do not
    unstuff to a whole number of bytes are discarded as noise.

    Each bit is scanned once, so the cost of a frame does not depend on
    how it is chunked. The stream is untrusted: a frame whose body passes
    [max_frame_bits] without a closing flag (idle ones, say) is discarded
    and counted, and the deframer hunts for the next flag. *)

type t

val max_frame_bits : int
(** 65536: the longest stuffed body, 8 KiB, a frame may have. *)

val create : ?scheme:Stuffing.Rule.scheme -> ?stats:Sublayer.Stats.scope -> unit -> t
(** Default scheme: classic HDLC. The flag must be 1 to
    [Sys.int_size - 1] bits long. When [stats] is given, the counters
    [frames_seen], [noise_discarded] and [oversize_discarded] register
    there. *)

val push : t -> Bitkit.Bitseq.t -> string list
(** Feed bits; returns the payloads of all frames completed by this
    chunk, in stream order. *)

val buffered_bits : t -> int
(** Bits of the current frame held waiting for its closing flag; always
    below [max_frame_bits] plus the flag length. *)

val frames_seen : t -> int
val noise_discarded : t -> int
(** Flag-delimited regions that failed unstuffing or byte alignment. *)

val oversize_discarded : t -> int
(** Frames dropped for running past [max_frame_bits]. *)

val reset : t -> unit
