(** The "place to send things" contract, made first-class.

    Every layer in the repo used to hold a concrete [Sim.Channel.t] as
    the thing below it.  A ['a t] extracts the four-part contract those
    consumers actually rely on — transmit one ['a] downward, receive
    ['a]s via an attached callback, read MTU/cost hints, and learn when
    the path below is gone — so that {e anything} honouring it can sit
    under a stack.  Two kinds ship: a link over a [Sim.Channel], made
    with {!make} and {!set_transmit} (the flat topology, unchanged
    behaviour), and [Transport.Tunnel], which presents an established
    transport connection as a link and makes sublayering recursive.

    Discipline: {!transmit} and {!deliver} are synchronous closure calls
    — a link adds no engine events and draws no randomness, so a
    channel-backed run through this seam is schedule-identical to the
    direct wiring it replaced. *)

type 'a t

val make :
  ?id:string ->
  ?mtu:int ->
  ?cost:float ->
  ?close:(unit -> unit) ->
  ?transmit:('a -> unit) ->
  unit ->
  'a t
(** A fresh, alive link.  [transmit] may be supplied later via
    {!set_transmit} (channels and endpoints reference each other, so one
    side of the knot is always tied second).  [close] is the hook run by
    {!close} — e.g. closing a tunnel's outer connection.  [cost]
    defaults to [1.]. *)

val id : 'a t -> string
val mtu : 'a t -> int option
(** Largest ['a] the path comfortably carries (payload bytes for slice
    links), or [None] for unconstrained.  A hint for segmentation — the
    link does not enforce it. *)

val cost : 'a t -> float
(** Relative routing-metric hint; channel-backed links default to 1. *)

val set_transmit : 'a t -> ('a -> unit) -> unit
val attach : 'a t -> ('a -> unit) -> unit
(** Register the upward delivery callback (the stack's [from_wire]). *)

val transmit : 'a t -> 'a -> unit
(** Send downward.  Dropped (counted) when the link is dead or has no
    transmit closure yet. *)

val deliver : 'a t -> 'a -> unit
(** Called by the implementation when an ['a] arrives from below;
    forwards to the attached callback.  Dropped (counted) when dead or
    unattached. *)

val alive : 'a t -> bool

val kill : 'a t -> unit
(** Declare the path below gone: further traffic drops, every
    {!on_death} subscriber fires (once — idempotent). *)

val on_death : 'a t -> (unit -> unit) -> unit
(** Subscribe to link death; fires immediately if already dead.  This is
    how an outer tunnel abort reaches inner stacks as link-death. *)

val close : 'a t -> unit
(** Orderly user-initiated shutdown: runs the [close] hook when present
    (which decides when the link actually dies — a tunnel's outer FIN
    handshake takes virtual time), else just {!kill}s. *)

type stats = { tx : int; rx : int; dropped : int }

val stats : 'a t -> stats
(** Frames transmitted, delivered, and dropped (dead/unwired), fresh
    record per call. *)

val transmitted : 'a t -> int
(** [(stats t).tx], without allocating the record: a host reads it
    around every connection it spawns for a listener. *)
