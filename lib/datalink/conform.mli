(** Conformance probes for the data-link T2 interfaces: ARQ⇄detector,
    with decoded sequence numbers checked against the ARQ variant's
    window discipline, and the opaque detector⇄framer and
    framer⇄linecode boundaries (length sanity). Each is built by its
    interface's {!Sublayer.Compose.Tap} under the probe policy stated
    there. *)

module C := Sublayer.Compose
module P_arq_det : C.PROBE with type req = Bitkit.Wirebuf.t and type ind = Bitkit.Slice.t
module P_det_frm : C.PROBE with type req = Bitkit.Slice.t and type ind = Bitkit.Slice.t
module P_frm_line : C.PROBE with type req = Bitkit.Bitseq.t and type ind = Bitkit.Bitseq.t

val arq_det : variant:string -> window:int -> P_arq_det.t C.probe
(** [variant] is the ARQ module's [name] ("arq-sw", "arq-gbn",
    "arq-sr"); unknown names get the most permissive (selective-repeat)
    window discipline. Down PDUs are read from the wirebuf's outer
    header, Up PDUs from the frame, both by {!Arq.decode_pdu_slice};
    undecodable PDUs are skipped — a frame the detector wrongly let
    through is not the interface's protocol violation. *)

val det_frm : P_det_frm.t C.probe
val frm_line : P_frm_line.t C.probe
