(** The interop shim of paper §3.1: "adding a shim sublayer that converts
    the sublayered header in Figure 6 to a standard TCP header ... should
    allow interoperability".

    The two headers are isomorphic given a little connection state: the
    ISN fields are static after the handshake (the shim learns them from
    the SYN exchange), sequence/ack numbers are already absolute, CM's
    out-of-band SYN/FIN/ACK controls map to flag bits with sequence
    numbers the shim tracks, and OSR's window travels in the standard
    window field. A sublayered endpoint wrapped in {!factory} speaks
    RFC 793 on the wire and interoperates with {!Tcp_monolithic}
    (experiment E4). *)

type t

val create : unit -> t

val sub_to_std : t -> Bitkit.Slice.t -> Bitkit.Slice.t list
(** Translate one outgoing sublayered segment to standard segments
    (usually one; empty if untranslatable). Headers are read in place
    with the [Segment] slice readers and written by {!Wire.encode}. *)

val std_to_sub : t -> Bitkit.Slice.t -> Bitkit.Slice.t list
(** Translate one incoming standard segment, read by
    {!Wire.decode_slice}, to sublayered segments built with the
    [Segment] writers (a data+FIN segment splits in two; an ack
    completing our FIN adds a CM acknowledgement). Each result owns its
    bytes: none is a view of the input. *)

val drain_inbound : t -> Bitkit.Slice.t list
(** Sublayered segments the shim generated on its own (a FIN it parked
    until the byte stream completed); {!factory} pumps these into the
    inner endpoint after every translation. *)

val factory : Host.factory
(** A sublayered endpoint behind the shim: RFC 793 on the wire. *)
