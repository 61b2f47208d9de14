module Machine = Sublayer.Machine

module P_arq_det = Machine.Probe (struct
  type req = Bitkit.Wirebuf.t
  type ind = Bitkit.Slice.t

  let name = "mon"
end)

module P_det_frm = Machine.Probe (struct
  type req = Bitkit.Slice.t
  type ind = Bitkit.Slice.t

  let name = "mon"
end)

module P_frm_line = Machine.Probe (struct
  type req = Bitkit.Bitseq.t
  type ind = Bitkit.Bitseq.t

  let name = "mon"
end)

let nop _ = ()

(* A probe with no monitor and no allocation cells observes nothing and
   charges nothing, so every such endpoint shares its interface's inert
   probe, allocates none, and its seam calls nothing. *)
let inert alloc mon = Option.is_none mon && Sublayer.Alloc.no_cells alloc

let observe_arq_det mon ~key ~variant ~window =
  match mon with
  | None -> ((nop : Bitkit.Wirebuf.t -> unit), (nop : Bitkit.Slice.t -> unit))
  | Some reg ->
    let v =
      match Monitor.Specs.arq_variant_of_name variant with
      | Some v -> v
      | None -> Monitor.Specs.Sr
    in
    let spec = Monitor.Specs.arq ~variant:v ~window in
    let inst = Monitor.Runtime.attach reg ~key spec in
    let idd m = Monitor.Spec.msg_id spec Monitor.Spec.Down m
    and idu m = Monitor.Spec.msg_id spec Monitor.Spec.Up m in
    let d_data = idd "data" and d_ack = idd "ack"
    and u_data = idu "data" and u_ack = idu "ack" in
    let ob mid ~a ~b = Monitor.Runtime.observe inst mid ~a ~b in
    (* The outer header of an outgoing wirebuf is the ARQ's own, so
       the ARQ's reader decodes it; the payload follows it. *)
    let obs_req buf =
      match Option.bind (Bitkit.Wirebuf.outer_header buf) Arq.decode_pdu_slice with
      | Some (Arq.Rx_data (seq, _)) ->
          ob d_data ~a:seq ~b:(Bitkit.Wirebuf.length buf - Arq.header_bytes)
      | Some (Arq.Rx_ack seq) -> ob d_ack ~a:seq ~b:0
      | None -> ()
    and obs_ind sl =
      match Arq.decode_pdu_slice sl with
      | Some (Arq.Rx_data (seq, payload)) ->
          ob u_data ~a:seq ~b:(Bitkit.Slice.length payload)
      | Some (Arq.Rx_ack seq) -> ob u_ack ~a:seq ~b:0
      | None -> ()
    in
    (obs_req, obs_ind)

let arq_det ?alloc mon ~key ~variant ~window =
  if inert alloc mon then P_arq_det.inert
  else
    let obs_req, obs_ind = observe_arq_det mon ~key ~variant ~window in
    let obs_req, obs_ind = Sublayer.Alloc.wrap_taps alloc obs_req obs_ind in
    { P_arq_det.obs_req; obs_ind }

let spec_det_frm =
  Monitor.Specs.opaque ~name:"det-frm" ~upper:"detector" ~lower:"framer" ()

let spec_frm_line =
  Monitor.Specs.opaque ~name:"frm-line" ~upper:"framer" ~lower:"linecode" ()

let observe_det_frm mon ~key =
  match mon with
  | None -> ((nop : Bitkit.Slice.t -> unit), (nop : Bitkit.Slice.t -> unit))
  | Some reg ->
      let spec = spec_det_frm in
      let inst = Monitor.Runtime.attach reg ~key spec in
      let down = Monitor.Spec.msg_id spec Monitor.Spec.Down "pdu"
      and up = Monitor.Spec.msg_id spec Monitor.Spec.Up "pdu" in
      let obs_req s =
        Monitor.Runtime.observe inst down ~a:(Bitkit.Slice.length s) ~b:0
      and obs_ind sl =
        Monitor.Runtime.observe inst up ~a:(Bitkit.Slice.length sl) ~b:0
      in
      (obs_req, obs_ind)

let det_frm ?alloc mon ~key =
  if inert alloc mon then P_det_frm.inert
  else
    let obs_req, obs_ind = observe_det_frm mon ~key in
    let obs_req, obs_ind = Sublayer.Alloc.wrap_taps alloc obs_req obs_ind in
    { P_det_frm.obs_req; obs_ind }

let observe_frm_line mon ~key =
  match mon with
  | None -> ((nop : Bitkit.Bitseq.t -> unit), (nop : Bitkit.Bitseq.t -> unit))
  | Some reg ->
      let spec = spec_frm_line in
      let inst = Monitor.Runtime.attach reg ~key spec in
      let down = Monitor.Spec.msg_id spec Monitor.Spec.Down "pdu"
      and up = Monitor.Spec.msg_id spec Monitor.Spec.Up "pdu" in
      let obs_req bits =
        Monitor.Runtime.observe inst down ~a:(Bitkit.Bitseq.length bits) ~b:0
      and obs_ind bits =
        Monitor.Runtime.observe inst up ~a:(Bitkit.Bitseq.length bits) ~b:0
      in
      (obs_req, obs_ind)

let frm_line ?alloc mon ~key =
  if inert alloc mon then P_frm_line.inert
  else
    let obs_req, obs_ind = observe_frm_line mon ~key in
    let obs_req, obs_ind = Sublayer.Alloc.wrap_taps alloc obs_req obs_ind in
    { P_frm_line.obs_req; obs_ind }
