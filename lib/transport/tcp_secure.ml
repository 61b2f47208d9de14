module Compose = Sublayer.Compose
module I = Sublayer.Instrument

(* Tcp_sublayered's declaration with one extra module slotted in below CM. *)
module S =
  Compose.Seam (Osr) (Conform.P_osr_rd)
    (Compose.Seam (Rd) (Conform.P_rd_cm)
       (Compose.Seam (Cm) (Conform.P_pdu) (Compose.Seam (Rec) (Conform.P_pdu) (Compose.Last (Dm)))))
module R = Compose.Run (S)

type t = R.t

let demo_key = String.init 32 (fun i -> Char.chr (7 * (i + 3) land 0xFF))

let create engine ?(ins = I.none) ~key ~name cfg ~local_port ~remote_port ~transmit ~events =
  let now () = Sim.Engine.now engine and pool = ins.I.pool in
  let sc sub = I.scope ins sub and sp sub = I.span ins ~now ~track:name sub in
  let isn = Config.make_isn cfg engine in
  R.create engine ~ins ~name ~transmit ~deliver:events
    ( Osr.initial ?stats:(sc Osr.scope) ?cc_stats:(sc "cc") ?span:(sp Osr.scope) ?pool cfg ~now,
      Conform.osr_rd,
      ( Rd.initial ?stats:(sc Rd.scope) ?span:(sp Rd.scope) cfg ~now,
        Conform.rd_cm,
        ( Cm.initial ?stats:(sc Cm.scope) ?span:(sp Cm.scope) cfg ~isn ~local_port ~remote_port,
          Conform.cm_rec,
          ( Rec.initial ?stats:(sc Rec.scope) ?span:(sp Rec.scope) ?pool ~key ~local_port
              ~remote_port (),
            Conform.rec_dm,
            Dm.make ?stats:(sc Dm.scope) ?span:(sp Dm.scope) ?pool ~local_port ~remote_port ()
          ) ) ) )

let connect t = R.from_above t `Connect
let listen t = R.from_above t `Listen
let write t s = R.from_above t (`Write s)
let from_wire t wire = R.from_below t wire

let stack =
  { Host.from_above = R.from_above; from_below = R.from_below; halt = R.halt;
    finished = (fun t -> Osr.stream_finished (S.upper (R.state t))) }

let factory ~key =
  {
    Host.fname = "sublayered-secure";
    peek = Segment.peek_ports;
    make =
      (fun ?(ins = I.none) engine ~name cfg ~local_port ~remote_port ~transmit ~events ->
        Host.stack_endpoint stack ~ins ~name ~events (fun events ->
            create engine ~ins ~key ~name cfg ~local_port ~remote_port ~transmit ~events));
  }
