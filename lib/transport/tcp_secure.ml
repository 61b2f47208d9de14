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
          Conform.cm_rec,
          ( Rec.initial ?stats:(I.scope ins Rec.scope)
              ?span:(I.span ins ~now ~track:name Rec.scope) ?pool ~key ~local_port ~remote_port (),
            Conform.rec_dm,
            Dm.make ?stats:(I.scope ins Dm.scope) ?span:(I.span ins ~now ~track:name Dm.scope)
              ?pool ~local_port ~remote_port () ) ) ) )

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
