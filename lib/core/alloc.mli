(** Per-sublayer allocation attribution.

    The paper's §2.3 argument — every cost attributable to exactly one
    sublayer — applied to GC pressure: because sublayer transitions are
    {e pure} ([state -> input -> state * actions], fully evaluated before
    any action is routed), the code running between two consecutive T2
    interface crossings is exactly one machine's step.  Reading
    [Gc.minor_words] at every crossing therefore attributes each
    allocation to the machine that made it.

    The hooks ride the seams that already exist: {!Runtime} brackets its
    entry points ([from_above] enters the top machine, [from_below] the
    bottom one, a timer fire whichever machine owns the timer) and the
    probe taps {!Compose.Tap} builds call {!cross} as messages pass —
    a [Down] crossing means the machine below is about to run, an [Up]
    crossing the machine above.

    There is no switch: words are attributed iff there are cells to
    charge them to. {!Compose.Run} builds cells only when
    {!Instrument.attributed} holds (telemetry and stats both given);
    without them the runtime brackets nothing and the probes are
    unwrapped, so an unattributed stack never calls this module. A hook
    with a cell costs two boxed-float reads whose own words are
    calibrated away (two back-to-back reads measure them once per
    domain), so the counters converge on the protocol's true
    allocation.  The attribution context is
    domain-local, so engine shards running in parallel never share a
    checkpoint. *)

type cell
(** Destination of attributed words: the [gc.minor_words] counter of one
    sublayer's {!Stats.scope}. *)

val cell : Stats.scope -> cell
(** Find-or-create the scope's [gc.minor_words] counter. *)

val cell_value : cell -> int
(** Minor words attributed so far (reads the underlying counter). *)

(** {1 Hooks} *)

val bracket : cell option -> ('a -> 'b -> unit) -> 'a -> 'b -> unit
(** [bracket (Some c) f a b] charges the open interval to the current
    cell, makes [c] current, runs [f a b], then charges [c] and makes
    current again the cell that was — the runtime's entry points and
    its excursions out of the stack (app delivery, wire transmit).
    Brackets nest, and the pop runs even when [f] raises.
    [bracket None f a b] is [f a b]: with no cell the interval stays
    with whatever cell is current. The step is passed apart from its
    arguments so the caller builds no closure. *)

val cross : cell option -> unit
(** Charge the open interval to the current cell and make [cell]
    current, without pushing — used by probe taps as a message passes a
    T2 boundary. *)

type pair = cell option * cell option
(** [(above, below)]: the cells on either side of one T2 boundary. A
    request heading down charges what follows to [below], an indication
    heading up to [above]; {!Compose.Tap} builds the probes that cross
    them. *)
