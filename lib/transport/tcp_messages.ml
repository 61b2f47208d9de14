module Machine = Sublayer.Machine

(* Identical lower stack to Tcp_sublayered; only the top module differs. *)
module Lower = Machine.Seam (Cm) (Conform.P_pdu) (Dm)
module Middle = Machine.Seam (Rd) (Conform.P_rd_cm) (Lower)
module Full = Machine.Seam (Msg) (Conform.P_osr_rd) (Middle)
module R = Sublayer.Runtime.Make (Full)

type t = R.t

let create engine ?trace ?(ins = Sublayer.Instrument.none) ~name cfg ~local_port ~remote_port ~transmit ~events =
  let module I = Sublayer.Instrument in
  let now () = Sim.Engine.now engine in
  let isn = Config.make_isn cfg engine in
  let monitors = ins.I.monitors in
  let sc sub = I.scope ins sub in
  let sp sub = I.span ins ~now ~track:name sub in
  let msg = Msg.initial ?stats:(sc "msg") ?cc_stats:(sc "cc") ?span:(sp "msg") cfg ~now in
  let rd = Rd.initial ?stats:(sc "rd") ?span:(sp "rd") cfg ~now in
  let cm = Cm.initial ?stats:(sc "cm") ?span:(sp "cm") cfg ~isn ~local_port ~remote_port in
  let dm = Dm.make ?stats:(sc "dm") ?span:(sp "dm") ~local_port ~remote_port () in
  let cm_dm = Conform.cm_dm monitors ~conn:name in
  let rd_cm = Conform.rd_cm monitors ~conn:name in
  let msg_rd =
    Conform.osr_rd ~spec:(Monitor.Specs.stream_rd ~upper:"msg") monitors ~conn:name
  in
  R.create engine ?trace ~name ~transmit ~deliver:events
    (Full.make msg msg_rd (Middle.make rd rd_cm (Lower.make cm cm_dm dm)))

let connect t = R.from_above t `Connect
let listen t = R.from_above t `Listen
let send t body = R.from_above t (`Send body)
let close t = R.from_above t `Close
let from_wire t wire = R.from_below t wire
let halt t = R.halt t

let msg_state t = Full.upper (R.state t)
let messages_sent t = Msg.messages_sent (msg_state t)
let messages_delivered t = Msg.messages_delivered (msg_state t)
let finished t = Msg.stream_finished (msg_state t)
