module Machine = Sublayer.Machine

(* The Figure 5 stack, composed bottom-up: CM over DM, RD over that, OSR
   on top, each boundary a seam with its conformance probe. The functor
   composition type-checks the narrow interfaces of Iface: any module
   with the same ports drops in. *)
module Lower = Machine.Seam (Cm) (Conform.P_pdu) (Dm)
module Middle = Machine.Seam (Rd) (Conform.P_rd_cm) (Lower)
module Full = Machine.Seam (Osr) (Conform.P_osr_rd) (Middle)
module R = Sublayer.Runtime.Make (Full)

type t = R.t

let create engine ?trace ?(ins = Sublayer.Instrument.none) ~name cfg ~local_port ~remote_port ~transmit ~events =
  let module I = Sublayer.Instrument in
  let now () = Sim.Engine.now engine in
  let isn = Config.make_isn cfg engine in
  let monitors = ins.I.monitors and pool = ins.I.pool in
  let sc sub = I.scope ins sub in
  let sp sub = I.span ins ~now ~track:name sub in
  (* Allocation cells exist only under telemetry (they add a
     gc.minor_words counter per scope to the registry, which a plain
     stats run should not see). Without them the runtime gets no alloc
     spec and the probes no cell pairs. *)
  let acell sub = I.alloc_cell ins sub in
  let osr_c = acell "osr" and rd_c = acell "rd" and cm_c = acell "cm"
  and dm_c = acell "dm" in
  let alloc =
    if not (I.attributed ins) then None
    else
      Some
        { Sublayer.Runtime.al_top = osr_c; al_bottom = dm_c; al_app = acell "app";
          al_wire = acell "wire";
          al_timer =
            (* Only OSR, RD and CM own timers; DM's slot is [Nothing.t],
               discharged by a refutation case. *)
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
  let cm = Cm.initial ?stats:(sc "cm") ?span:(sp "cm") cfg ~isn ~local_port ~remote_port in
  let dm = Dm.make ?stats:(sc "dm") ?span:(sp "dm") ?pool ~local_port ~remote_port () in
  let between = Sublayer.Alloc.between in
  let cm_dm = Conform.cm_dm ?alloc:(between cm_c dm_c) monitors ~conn:name in
  let rd_cm = Conform.rd_cm ?alloc:(between rd_c cm_c) monitors ~conn:name in
  let osr_rd = Conform.osr_rd ?alloc:(between osr_c rd_c) monitors ~conn:name in
  R.create engine ?trace ?alloc ~name ~transmit ~deliver:events
    (Full.make osr osr_rd (Middle.make rd rd_cm (Lower.make cm cm_dm dm)))

let from_above = R.from_above
let connect t = R.from_above t `Connect
let listen t = R.from_above t `Listen
let write t s = R.from_above t (`Write s)
let read t n = R.from_above t (`Read n)
let close t = R.from_above t `Close
let from_wire t wire = R.from_below t wire
let halt t = R.halt t

let osr_state t = Full.upper (R.state t)
let rd_state t = Middle.upper (Full.lower (R.state t))
let cm_state t = Lower.upper (Middle.lower (Full.lower (R.state t)))

let cm_phase t = Cm.phase_name (cm_state t)
let rd_stats t = Rd.stats (rd_state t)
let osr_stats t = Osr.stats (osr_state t)
let cwnd t = Osr.cwnd (osr_state t)
let peer_window_of t = Osr.peer_window (osr_state t)
let srtt t = Rd.srtt (rd_state t)
let outstanding t = Rd.outstanding (rd_state t)
let unsent_bytes t = Osr.unsent_bytes (osr_state t)
let stream_finished t = Osr.stream_finished (osr_state t)
let cc_name t = Osr.cc_name (osr_state t)
