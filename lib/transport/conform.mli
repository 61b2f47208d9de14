(** Conformance probes for the transport T2 interfaces the Figure 5
    stacks expose: OSR⇄RD, RD⇄CM and the opaque PDU boundaries CM⇄DM,
    CM⇄Rec and Rec⇄DM, each built by its interface's
    {!Sublayer.Compose.Tap} under the probe policy stated there, and the
    application boundary above the stack. *)

module C := Sublayer.Compose
module P_osr_rd : C.PROBE with type req = Iface.rd_req and type ind = Iface.rd_ind
module P_rd_cm : C.PROBE with type req = Iface.cm_req and type ind = Iface.cm_ind
module P_pdu : C.PROBE with type req = Bitkit.Wirebuf.t and type ind = Bitkit.Slice.t

val osr_rd : P_osr_rd.t C.probe
(** Checked against {!Monitor.Specs.osr_rd}. *)

val msg_rd : P_osr_rd.t C.probe
(** The same boundary under the {!Msg} stack, checked against
    [Monitor.Specs.stream_rd ~upper:"msg"]. *)

val rd_cm : P_rd_cm.t C.probe
(** Checked against {!Monitor.Specs.rd_cm}. *)

val cm_dm : P_pdu.t C.probe
val cm_rec : P_pdu.t C.probe
val rec_dm : P_pdu.t C.probe
(** Opaque: each crossing is one [pdu] of at least one byte. *)

val app :
  Monitor.Runtime.t option ->
  conn:string ->
  (Iface.app_req -> unit) * (Iface.app_ind -> unit)
(** Observation closures for the application boundary; the endpoint
    wrappers call them just before handing the request to the stack /
    the indication to the app. {!Host.stack_endpoint} asks for them only
    when a monitor is attached, and otherwise wires nothing there. *)
