(** The T2 interface contracts of the three layers, as {!Spec} values.

    One spec per interface crossing the stacks already trace; the same
    values drive the runtime monitors (attached by each layer's [Conform]
    glue) and the {!Mcheck.Protocol} assume–guarantee products. Message
    argument conventions are documented per spec; [a]/[b] are lengths,
    stream offsets or sequence numbers. *)

val app : Spec.t
(** Application ⇄ OSR ("osr-app"): [`Established] at most once before
    any [`Data]; no stream events after [`Closed]/[`Reset]/[`Aborted].
    Down: connect, listen, write(a=len), read(a=n), close.
    Up: established, data(a=len), peer_closed, closed, reset, aborted. *)

val stream_rd : upper:string -> Spec.t
(** The OSR⇄RD contract for any stream sublayer sitting on RD — the
    {!Msg} stack reuses it with [~upper:"msg"]. *)

val osr_rd : Spec.t
(** OSR ⇄ RD ("osr-rd"): no [`Transmit]/block traffic before
    [`Established]; transmit offsets strictly contiguous (each [`Transmit
    (off, len, _)] has [off] = previous high-water mark, which then
    advances by [len] — persist probes included); [`Acked upto] monotone
    nondecreasing and never beyond the transmit high-water mark. *)

val rd_cm : Spec.t
(** RD ⇄ CM ("rd-cm"): no data [`Pdu] in either direction before
    [`Established] (a CM that speaks in [Syn_sent] is caught here);
    [`Close] only after establishment; [`Abort] is terminal. *)

val opaque :
  name:string -> upper:string -> lower:string -> ?min_up:int -> unit -> Spec.t
(** A single-state sanity spec for opaque PDU boundaries (CM↔DM, CM↔Rec,
    Rec↔DM, detector↔framer, framer↔linecode): every crossing is a
    [pdu] with [a] = length, guarded to be at least 1 going down and
    [min_up] (default 0) going up. Mostly a per-interface event
    counter. *)

type arq_variant = Sw | Gbn | Sr

val arq : variant:arq_variant -> window:int -> Spec.t
(** ARQ ⇄ detector ("arq-det"): data and ack PDUs with their decoded
    16-bit sequence numbers. Transmitted data must stay inside the
    variant's send window relative to the acknowledgements the ARQ has
    seen; received data must stay within a window of the acknowledgements
    it has sent — "retransmits beyond the window" trips here.
    Down: data(a=seq,b=len), ack(a=seq). Up: data(a=seq,b=len), ack(a=seq). *)

val arq_variant_of_name : string -> arq_variant option
(** Recognise the built-in ARQ module names ("arq-sw", "arq-gbn",
    "arq-sr"). *)

val fib : Spec.t
(** Router ⇄ FIB ("router-fib"): inserts and removes (the routing
    sublayer writing) keep a size register; a data-path lookup hit
    against a table the monitor knows to be empty, or a remove of a
    present entry when the size is zero, is an inconsistency.
    Down: insert(a=fresh), remove(a=present). Up: lookup(a=hit). *)
