module Machine = Sublayer.Machine

(* Only the CM module differs from Tcp_sublayered. *)
module Lower = Machine.Seam (Cm_timer) (Conform.P_pdu) (Dm)
module Middle = Machine.Seam (Rd) (Conform.P_rd_cm) (Lower)
module Full = Machine.Seam (Osr) (Conform.P_osr_rd) (Middle)
module R = Sublayer.Runtime.Make (Full)

type t = R.t

let create engine ?trace ?(ins = Sublayer.Instrument.none)
    ?(idle_timeout = 6.0) ~name cfg ~local_port ~remote_port ~transmit ~events =
  let module I = Sublayer.Instrument in
  let now () = Sim.Engine.now engine in
  let isn = Config.make_isn cfg engine in
  let monitors = ins.I.monitors and pool = ins.I.pool in
  let sc sub = I.scope ins sub in
  let sp sub = I.span ins ~now ~track:name sub in
  let acell sub = I.alloc_cell ins sub in
  let osr_c = acell "osr" and rd_c = acell "rd" and cm_c = acell "cm-timer"
  and dm_c = acell "dm" in
  let alloc =
    if not (I.attributed ins) then None
    else
      Some
        { Sublayer.Runtime.al_top = osr_c; al_bottom = dm_c; al_app = acell "app";
          al_wire = acell "wire";
          al_timer =
            (* OSR, RD and CM-with-timer own timers (the Watson variant
               adds [Idle]); DM's slot is [Nothing.t]. *)
            (fun (tm : Full.timer) ->
            match tm with
            | Either.Left _ -> osr_c
            | Either.Right (Either.Left _) -> rd_c
            | Either.Right (Either.Right (Either.Left _)) -> cm_c
            | Either.Right (Either.Right (Either.Right _)) -> .);
        }
  in
  let osr =
    Osr.initial ?stats:(sc "osr") ?cc_stats:(sc "cc") ?span:(sp "osr") ?pool cfg
      ~now
  in
  let rd = Rd.initial ?stats:(sc "rd") ?span:(sp "rd") cfg ~now in
  let cm =
    Cm_timer.initial ?stats:(sc "cm-timer") ?span:(sp "cm-timer") cfg ~isn
      ~local_port ~remote_port ~idle_timeout
  in
  let dm = Dm.make ?stats:(sc "dm") ?span:(sp "dm") ?pool ~local_port ~remote_port () in
  let between = Sublayer.Alloc.between in
  let cm_dm = Conform.cm_dm ?alloc:(between cm_c dm_c) monitors ~conn:name in
  let rd_cm = Conform.rd_cm ?alloc:(between rd_c cm_c) monitors ~conn:name in
  let osr_rd = Conform.osr_rd ?alloc:(between osr_c rd_c) monitors ~conn:name in
  R.create engine ?trace ?alloc ~name ~transmit ~deliver:events
    (Full.make osr osr_rd (Middle.make rd rd_cm (Lower.make cm cm_dm dm)))

let connect t = R.from_above t `Connect
let listen t = R.from_above t `Listen
let write t s = R.from_above t (`Write s)
let read t n = R.from_above t (`Read n)
let close t = R.from_above t `Close
let from_wire t wire = R.from_below t wire
let halt t = R.halt t
let cm_phase t = Cm_timer.phase_name (Lower.upper (Middle.lower (Full.lower (R.state t))))
let stream_finished t = Osr.stream_finished (Full.upper (R.state t))

let stack =
  { Host.from_above = R.from_above; from_below = R.from_below; halt = R.halt;
    finished = stream_finished }

let factory ?idle_timeout () =
  {
    Host.fname = "sublayered-watson";
    peek = Segment.peek_ports;
    make =
      (fun ?(ins = Sublayer.Instrument.none) engine ~name cfg ~local_port
           ~remote_port ~transmit ~events ->
        Host.stack_endpoint stack ~ins ~name ~events (fun events ->
            create engine ~ins ?idle_timeout ~name cfg ~local_port ~remote_port
              ~transmit ~events));
  }
