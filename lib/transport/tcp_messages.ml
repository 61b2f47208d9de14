module Compose = Sublayer.Compose
module I = Sublayer.Instrument

(* Tcp_sublayered's stack with only the top module replaced. *)
module S =
  Compose.Seam (Msg) (Conform.P_osr_rd)
    (Compose.Seam (Rd) (Conform.P_rd_cm) (Compose.Seam (Cm) (Conform.P_pdu) (Compose.Last (Dm))))
module R = Compose.Run (S)

type t = R.t

let create engine ?(ins = I.none) ~name cfg ~local_port ~remote_port ~transmit ~events =
  let now () = Sim.Engine.now engine in
  let isn = Config.make_isn cfg engine in
  R.create engine ~ins ~name ~transmit ~deliver:events
    ( Msg.initial ?stats:(I.scope ins Msg.scope) ?cc_stats:(I.scope ins "cc")
        ?span:(I.span ins ~now ~track:name Msg.scope) cfg ~now,
      Conform.msg_rd,
      ( Rd.initial ?stats:(I.scope ins Rd.scope) ?span:(I.span ins ~now ~track:name Rd.scope)
          cfg ~now,
        Conform.rd_cm,
        ( Cm.initial ?stats:(I.scope ins Cm.scope) ?span:(I.span ins ~now ~track:name Cm.scope)
            cfg ~isn ~local_port ~remote_port,
          Conform.cm_dm,
          Dm.make ?stats:(I.scope ins Dm.scope) ?span:(I.span ins ~now ~track:name Dm.scope)
            ~local_port ~remote_port () ) ) )

let connect t = R.from_above t `Connect
let listen t = R.from_above t `Listen
let send t body = R.from_above t (`Send body)
let from_wire t wire = R.from_below t wire

let msg_state t = S.upper (R.state t)
let messages_sent t = Msg.messages_sent (msg_state t)
let finished t = Msg.stream_finished (msg_state t)
