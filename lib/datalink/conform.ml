module Tap = Sublayer.Compose.Tap

module P_arq_det = Tap (struct
  type req = Bitkit.Wirebuf.t
  type ind = Bitkit.Slice.t
end)

module P_det_frm = Tap (struct
  type req = Bitkit.Slice.t
  type ind = Bitkit.Slice.t
end)

module P_frm_line = Tap (struct
  type req = Bitkit.Bitseq.t
  type ind = Bitkit.Bitseq.t
end)

let observe_arq_det ~variant ~window reg ~conn =
  let v =
    match Monitor.Specs.arq_variant_of_name variant with
    | Some v -> v
    | None -> Monitor.Specs.Sr
  in
  let spec = Monitor.Specs.arq ~variant:v ~window in
  let inst = Monitor.Runtime.attach reg ~key:conn spec in
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

(* An endpoint pays for one closure block here: the constructor and the
   observer it hands [make] share it, so neither is built again when the
   composer calls the constructor. *)
let arq_det ~variant ~window =
  let rec probe ?alloc mon ~conn = P_arq_det.make observe ?alloc mon ~conn
  and observe reg ~conn = observe_arq_det ~variant ~window reg ~conn in
  probe

let det_frm =
  P_det_frm.opaque
    (Monitor.Specs.opaque ~name:"det-frm" ~upper:"detector" ~lower:"framer" ())
    ~req_len:Bitkit.Slice.length ~ind_len:Bitkit.Slice.length

let frm_line =
  P_frm_line.opaque
    (Monitor.Specs.opaque ~name:"frm-line" ~upper:"framer" ~lower:"linecode" ())
    ~req_len:Bitkit.Bitseq.length ~ind_len:Bitkit.Bitseq.length
