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
    stuffed bit". An entry maps state × input byte to the output bits,
    their count and the next state; a partial last byte takes the
    per-bit transitions the tables are built from. Output goes through
    an int accumulator into a buffer sized for the worst case, then the
    frame is copied out at its exact size. {!compile} also turns the
    flag's string-matching automaton into a byte table, so {!decode}
    hunts both flags a byte per step. Build the tables once per scheme
    ([Datalink.Framer.hdlc] closes over them), not once per frame: the
    transducers hold [(k + 1) × 256] ints each, the flag search
    [m × 256] bytes for an [m]-bit flag. *)

type t
(** A scheme compiled to its transition tables. *)

val compile : Rule.scheme -> t
(** Raises [Invalid_argument] if the rule is not well-formed
    ({!Rule.rule_well_formed}) or the flag is longer than 248 bits. *)

val stuff : t -> Bitkit.Bitseq.t -> Bitkit.Bitseq.t
(** {!Codec.stuff} of the scheme's rule. *)

val unstuff : t -> Bitkit.Bitseq.t -> Bitkit.Bitseq.t option
(** {!Codec.unstuff} of the scheme's rule. *)

val unstuff_sub : t -> Bitkit.Bitseq.t -> pos:int -> len:int -> Bitkit.Bitseq.t option
(** [unstuff_sub t bits ~pos ~len] is [unstuff t (Bitseq.sub bits pos len)]
    without the copy. *)

val encode : t -> Bitkit.Bitseq.t -> Bitkit.Bitseq.t
(** {!Codec.encode}: flag, stuffed body, flag, written in one buffer. *)

val find_flag : t -> from:int -> Bitkit.Bitseq.t -> int option
(** [find_flag t ~from bits] is [Bitkit.Bitseq.find_sub ~from ~pattern:flag
    bits] for the scheme's flag, found by the compiled automaton: one
    table step per 8 bits, at any alignment of [from]. Raises
    [Invalid_argument] unless [0 <= from <= length bits]. *)

val decode : t -> Bitkit.Bitseq.t -> Bitkit.Bitseq.t option
(** {!Codec.decode}: find the opening flag, find the closing flag from
    the body start (both with {!find_flag}), then unstuff the range
    between them in place. *)
