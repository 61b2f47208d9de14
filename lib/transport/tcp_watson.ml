module Compose = Sublayer.Compose
module I = Sublayer.Instrument

(* Only the CM module differs from Tcp_sublayered. *)
module S =
  Compose.Seam (Osr) (Conform.P_osr_rd)
    (Compose.Seam (Rd) (Conform.P_rd_cm)
       (Compose.Seam (Cm_timer) (Conform.P_pdu) (Compose.Last (Dm))))
module R = Compose.Run (S)

type t = R.t

(* Above the maximum RTO, so loss recovery is never mistaken for a dead
   peer. *)
let idle_timeout = 6.0

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
        ( Cm_timer.initial ?stats:(I.scope ins Cm_timer.scope)
            ?span:(I.span ins ~now ~track:name Cm_timer.scope) cfg ~isn ~local_port ~remote_port
            ~idle_timeout,
          Conform.cm_dm,
          Dm.make ?stats:(I.scope ins Dm.scope) ?span:(I.span ins ~now ~track:name Dm.scope)
            ?pool ~local_port ~remote_port () ) ) )

let listen t = R.from_above t `Listen
let from_wire t wire = R.from_below t wire

let stack =
  { Host.from_above = R.from_above; from_below = R.from_below; halt = R.halt;
    finished = (fun t -> Osr.stream_finished (S.upper (R.state t))) }

let factory =
  {
    Host.fname = "sublayered-watson";
    peek = Segment.peek_ports;
    make =
      (fun ?(ins = I.none) engine ~name cfg ~local_port ~remote_port ~transmit ~events ->
        Host.stack_endpoint stack ~ins ~name ~events (fun events ->
            create engine ~ins ~name cfg ~local_port ~remote_port ~transmit ~events));
  }
