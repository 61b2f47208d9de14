(** The stateless data-link sublayers as {!Sublayer.Compose.SUBLAYER}
    machines, ready to declare a stack with. Each counts under its
    [scope] ([detector], [framer], [linecode]), not its [name]. Each
    machine's state is its mechanism value ({!Detector.t}, {!Framer.t},
    {!Linecode.t}) plus its own counters, so replacing the mechanism is
    replacing the state — the surrounding stack code never changes (test
    T3) — and every sublayer's drop/pass counts stay private to it. *)

module Error_detection : sig
  include
    Sublayer.Compose.SUBLAYER
      with type up_req = Bitkit.Wirebuf.t
       and type up_ind = Bitkit.Slice.t
       and type down_req = Bitkit.Slice.t
       and type down_ind = Bitkit.Slice.t
       and type timer = Sublayer.Machine.Nothing.t

  val make :
    ?stats:Sublayer.Stats.scope ->
    ?span:Sublayer.Span.ctx ->
    ?pool:Bitkit.Pool.t ->
    Detector.t ->
    t
  (** Counters: [frames_protected], [frames_verified], [frames_corrupt],
      [copied_trailer_bytes]. With [span], every crossing is an instant
      marker ([protect], [verify], [corrupt]).

      With [pool], protection emits into a loaned slot and writes the
      detector's chain digest in place — the transmit path allocates no
      intermediate flat packet, and [copied_trailer_bytes] counts only
      the trailer itself. The loan is deferred-released; the owning
      engine must drain the pool via {!Sim.Engine.after_event} (pool
      exhaustion falls back to the legacy heap path, counted as an
      overrun). *)
end

module Framing : sig
  include
    Sublayer.Compose.SUBLAYER
      with type up_req = Bitkit.Slice.t
       and type up_ind = Bitkit.Slice.t
       and type down_req = Bitkit.Bitseq.t
       and type down_ind = Bitkit.Bitseq.t
       and type timer = Sublayer.Machine.Nothing.t

  val make : ?stats:Sublayer.Stats.scope -> ?span:Sublayer.Span.ctx -> Framer.t -> t
  (** Counters: [frames_framed], [frames_deframed], [frames_malformed].
      With [span], instant markers [frame], [deframe], [malformed]. *)
end

module Line_coding : sig
  include
    Sublayer.Compose.SUBLAYER
      with type up_req = Bitkit.Bitseq.t
       and type up_ind = Bitkit.Bitseq.t
       and type down_req = Bitkit.Bitseq.t
       and type down_ind = Bitkit.Bitseq.t
       and type timer = Sublayer.Machine.Nothing.t

  val make : ?stats:Sublayer.Stats.scope -> ?span:Sublayer.Span.ctx -> Linecode.t -> t
  (** Counters: [blocks_encoded], [blocks_decoded], [illegal_symbols].
      With [span], instant markers [encode], [decode], [illegal]. *)
end
