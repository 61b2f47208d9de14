(** The narrow interfaces between TCP sublayers — test T2 made concrete.

    Everything two adjacent sublayers can ever say to each other is one of
    these variants. The types are deliberately small: OSR↔RD exchange
    stream offsets, opaque OSR byte blocks and summarised congestion
    signals; RD↔CM exchange opaque PDUs plus the connection lifecycle;
    CM↔DM exchange only opaque PDUs. A sublayer can be replaced by
    anything with the same [Machine.S] ports (experiment E10). *)

(** Application ⇄ OSR. *)
type app_req =
  [ `Connect  (** active open *)
  | `Listen   (** passive open *)
  | `Write of string  (** append bytes to the outgoing stream *)
  | `Read of int
    (** the application consumed [n] delivered bytes, freeing receive
        buffer — the flow-control feedback that reopens the advertised
        window *)
  | `Close    (** graceful close after the stream drains *) ]

type app_ind =
  [ `Established
  | `Data of Bitkit.Slice.t
      (** In-order stream bytes, as a view of the buffer they arrived in
          — valid for the duration of the delivering event; consumers
          that keep the bytes copy them out (the host appends them to
          its receive store, {!Bitkit.Blockbuf.add}, whose blocks never
          move). *)
  | `Peer_closed      (** peer finished sending *)
  | `Closed           (** connection fully closed *)
  | `Reset
  | `Aborted
    (** the stack gave up: retransmission exhausted with no sign of the
        peer (ETIMEDOUT semantics) — local state is gone *) ]

(** OSR ⇄ RD. [`Transmit (offset, len, osr_pdu)] releases a segment that
    is "ready" (rate control's decision) — the PDU travels as a
    {!Bitkit.Wirebuf} so each lower sublayer appends its header without
    copying the payload. [`Set_block] keeps RD supplied with the current
    3-byte OSR header to stamp on every outgoing segment (including pure
    acks) — RD never looks inside it. Upward, [`Segment] delivers
    exactly-once (possibly out of order) as a zero-copy {!Bitkit.Slice}
    view of the received wire buffer, [`Acked (upto, block, rtt)] reports
    cumulative progress together with the peer's OSR block and an RTT
    sample, and [`Loss] summarises congestion signals. *)
type rd_req =
  [ `Connect
  | `Listen
  | `Close
  | `Transmit of int * int * Bitkit.Wirebuf.t
  | `Set_block of string
  | `Announce_block of string
    (** like [`Set_block], but also emit a pure ack immediately — the
        window-update segment that unblocks a zero-window-stalled peer *) ]

type rd_ind =
  [ `Established
  | `Segment of int * Bitkit.Slice.t  (** (stream offset, osr_pdu) *)
  | `Acked of int * Bitkit.Slice.t * float option
  | `Loss of Cc.loss
  | `Peer_fin
  | `Closed
  | `Reset
  | `Aborted  (** RD exhausted retransmission and dropped its state *) ]

(** RD ⇄ CM. CM stamps every [`Pdu] with the connection's ISNs and flags,
    and runs the SYN/FIN bootstrap machinery itself. [`Abort] tears the
    connection down unilaterally (RST to the peer, no upward echo).
    Downward PDUs are wirebufs (headers still accumulating); upward PDUs
    are slices of the received wire buffer. *)
type cm_req = [ `Connect | `Listen | `Close | `Abort | `Pdu of Bitkit.Wirebuf.t ]

type cm_ind =
  [ `Established of int * int  (** (isn_local, isn_remote) *)
  | `Pdu of Bitkit.Slice.t
  | `Peer_fin
  | `Closed
  | `Reset ]

val seq32 : Sublayer.Seqspace.t
(** The 32-bit TCP sequence space. *)
