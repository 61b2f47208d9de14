(** Performance-oriented stuffing codec over {!Bitkit.Bitseq}.

    {b Contract.} For every well-formed scheme and every input, each
    function here returns bit for bit what its extraction-style {!Codec}
    counterpart returns, including [None] on the same garbage: noise
    before the opening flag, no closing flag, a wrong or missing stuffed
    bit. Property tests check this for {!Rule.hdlc}, {!Rule.paper_best}
    and random rules. This is the "Tune" challenge (paper §5) applied to
    the framing sublayer: the mechanism gets faster, the service stays.

    {b Design.} {!compile} turns a scheme into two byte-transition
    tables, one for stuffing and one for unstuffing, over the trigger's
    string-matching automaton: state [q] counts how much of the trigger
    the stuffed stream currently ends in, so the trigger fires only once
    [k] real bits have gone by ([k] the trigger length), as in the
    reference. Unstuffing reads state [k] as "the next bit must be the
    stuffed bit". The entry for state × input byte is
    [(bits lsl 24) lor (count lsl 16) lor (next lsl 8)]: the output bits,
    their count and the next state, which sits where the next byte's row
    index wants it, so a byte step is [tab.((e land 0xFF00) lor byte)]
    and the path each byte waits on is that [land] and a load. [-1]
    marks a wrong stuffed bit. The 8-bit state field is why a trigger
    may be at most 255 bits long. {!compile} also turns the flag's
    string-matching automaton into a table over states kept multiplied
    by 256, a match stored as [-1 - i] for the bit [i] it ends at, so the
    flag search steps a byte at a time: each 8-bit window is shifted out
    of two bytes, off the path each step waits on, which is one load.

    The tables are built here, in OCaml, and stored as native 64-bit
    words. The loops that walk them are portable C99
    ([lib/bitkit/stuffing_kernels.c], scalar, beside the record layer's
    kernels), called through [[@@noalloc]] externals with untagged ints
    once every range has been checked here; each loop is compiled twice,
    once for a byte-aligned start. A transducer's state crosses the
    boundary packed in one int, the output bits written so far and [q];
    the output's partial last byte waits in the buffer. Whole bytes go
    through the C; a partial last byte takes the per-bit transitions the
    tables are built from, here. Output gathers in a 64-bit accumulator
    and leaves in one 32-bit big-endian store whenever 32 bits are
    pending, into a buffer sized for the worst case; the frame is then
    copied out at its exact size. {!encode_sub} stuffs a range of a
    larger sequence in place, so a framer can read a payload from the
    buffer it already sits in.

    {!decode} is one pass over the body. After the opening flag, one C
    loop runs the flag automaton [ceil ((m + 7) / 8)] bytes ahead of the
    unstuffer ([m] the flag length: one byte for a 1-bit flag, two for
    HDLC's 8 bits, four for 24): once the search has read [f] bytes
    without a match no flag starts before bit [8f - m + 1] of the body,
    so every byte the unstuffer takes lies wholly before any flag still
    to be found, and a wrong stuffed bit there means [None] whether or
    not a closing flag follows. When the closing flag turns up the
    unstuffer takes the body's remaining whole bytes, and its last bits
    go through the per-bit steps.

    Build the tables once per scheme ([Datalink.Framer.hdlc] closes over
    them), not once per frame: the transducers hold [(k + 1) × 256]
    words each, the flag search [m × 256] for an [m]-bit flag. *)

type t
(** A scheme compiled to its transition tables. *)

val compile : Rule.scheme -> t
(** Raises [Invalid_argument] if the rule is not well-formed
    ({!Rule.rule_well_formed}) or its trigger is longer than 255 bits. *)

val stuff : t -> Bitkit.Bitseq.t -> Bitkit.Bitseq.t
(** {!Codec.stuff} of the scheme's rule. *)

val unstuff : t -> Bitkit.Bitseq.t -> Bitkit.Bitseq.t option
(** {!Codec.unstuff} of the scheme's rule. *)

val unstuff_sub : t -> Bitkit.Bitseq.t -> pos:int -> len:int -> Bitkit.Bitseq.t option
(** [unstuff_sub t bits ~pos ~len] is [unstuff t (Bitseq.sub bits pos len)]
    without the copy. Raises [Invalid_argument] unless the range lies in
    [bits]. *)

val encode : t -> Bitkit.Bitseq.t -> Bitkit.Bitseq.t
(** {!Codec.encode}: flag, stuffed body, flag, written in one buffer. *)

val encode_sub : t -> Bitkit.Bitseq.t -> pos:int -> len:int -> Bitkit.Bitseq.t
(** [encode_sub t bits ~pos ~len] is [encode t (Bitseq.sub bits pos len)]
    without the copy. Raises [Invalid_argument] unless the range lies in
    [bits]. *)

val find_flag : t -> from:int -> Bitkit.Bitseq.t -> int option
(** [find_flag t ~from bits] is [Bitkit.Bitseq.find_sub ~from ~pattern:flag
    bits] for the scheme's flag, found by the compiled automaton: one
    table step per 8 bits, at any alignment of [from]. Raises
    [Invalid_argument] unless [0 <= from <= length bits]. *)

val decode : t -> Bitkit.Bitseq.t -> Bitkit.Bitseq.t option
(** {!Codec.decode}: find the opening flag as {!find_flag} does, then
    find the closing flag and unstuff the body between them in one pass
    (see Design). *)
