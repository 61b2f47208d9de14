module Compose = Sublayer.Compose
module I = Sublayer.Instrument

(* The Figure 5 stack, declared top to bottom, each boundary a seam with
   its conformance probe. The composition type-checks the narrow
   interfaces of Iface: any module with the same ports drops in. *)
module Lower =
  Compose.Seam (Rd) (Conform.P_rd_cm) (Compose.Seam (Cm) (Conform.P_pdu) (Compose.Last (Dm)))
module S = Compose.Seam (Osr) (Conform.P_osr_rd) (Lower)
module R = Compose.Run (S)

type t = R.t

let create engine ?(ins = I.none) ~name cfg ~local_port ~remote_port ~transmit ~events =
  let now () = Sim.Engine.now engine and pool = ins.I.pool in
  let isn = Config.make_isn cfg engine in
  R.create engine ~ins ~name ~transmit ~deliver:events
    ( Osr.initial ?stats:(I.scope ins Osr.scope) ?cc_stats:(I.scope ins "cc")
        ?span:(I.span ins ~now ~track:name Osr.scope) ?pool cfg ~now,
      Conform.osr_rd,
      ( Rd.initial ?stats:(I.scope ins Rd.scope) ?span:(I.span ins ~now ~track:name Rd.scope)
          cfg ~now,
        Conform.rd_cm,
        ( Cm.initial ?stats:(I.scope ins Cm.scope) ?span:(I.span ins ~now ~track:name Cm.scope)
            cfg ~isn ~local_port ~remote_port,
          Conform.cm_dm,
          Dm.make ?stats:(I.scope ins Dm.scope) ?span:(I.span ins ~now ~track:name Dm.scope)
            ?pool ~local_port ~remote_port () ) ) )

let from_above = R.from_above
let connect t = R.from_above t `Connect
let listen t = R.from_above t `Listen
let write t s = R.from_above t (`Write s)
let read t n = R.from_above t (`Read n)
let close t = R.from_above t `Close
let from_wire t wire = R.from_below t wire
let halt t = R.halt t

let osr_state t = S.upper (R.state t)
let rd_stats t = Rd.stats (Lower.upper (S.lower (R.state t)))
let osr_stats t = Osr.stats (osr_state t)
let cwnd t = Osr.cwnd (osr_state t)
let peer_window_of t = Osr.peer_window (osr_state t)
let stream_finished t = Osr.stream_finished (osr_state t)
