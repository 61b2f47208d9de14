module Machine = Sublayer.Machine

(* Tcp_sublayered with one extra module slotted in below CM. *)
module Bottom = Machine.Seam (Rec) (Conform.P_pdu) (Dm)
module Lower = Machine.Seam (Cm) (Conform.P_pdu) (Bottom)
module Middle = Machine.Seam (Rd) (Conform.P_rd_cm) (Lower)
module Full = Machine.Seam (Osr) (Conform.P_osr_rd) (Middle)
module R = Sublayer.Runtime.Make (Full)

type t = R.t

let demo_key = String.init 32 (fun i -> Char.chr (7 * (i + 3) land 0xFF))

let create engine ?trace ?(ins = Sublayer.Instrument.none) ~key ~name cfg
    ~local_port ~remote_port ~transmit ~events =
  let module I = Sublayer.Instrument in
  let now () = Sim.Engine.now engine in
  let isn = Config.make_isn cfg engine in
  let monitors = ins.I.monitors and pool = ins.I.pool in
  let sc sub = I.scope ins sub in
  let sp sub = I.span ins ~now ~track:name sub in
  let acell sub = I.alloc_cell ins sub in
  let osr_c = acell "osr" and rd_c = acell "rd" and cm_c = acell "cm"
  and rec_c = acell "rec" and dm_c = acell "dm" and app_c = acell "app"
  and wire_c = acell "wire" in
  let alloc =
    { Sublayer.Runtime.al_top = osr_c; al_bottom = dm_c; al_app = app_c;
      al_wire = wire_c;
      al_timer =
        (* Only OSR, RD and CM own timers; the Rec and DM slots are
           [Nothing.t], discharged by refutation cases. *)
        (fun (tm : Full.timer) ->
        match tm with
        | Either.Left _ -> osr_c
        | Either.Right (Either.Left _) -> rd_c
        | Either.Right (Either.Right (Either.Left _)) -> cm_c
        | Either.Right (Either.Right (Either.Right (Either.Left _))) -> .
        | Either.Right (Either.Right (Either.Right (Either.Right _))) -> .);
    }
  in
  let osr =
    Osr.initial ?stats:(sc "osr") ?cc_stats:(sc "cc") ?span:(sp "osr") ?pool cfg
      ~now
  in
  let rd = Rd.initial ?stats:(sc "rd") ?span:(sp "rd") cfg ~now in
  let cm = Cm.initial ?stats:(sc "cm") ?span:(sp "cm") cfg ~isn ~local_port ~remote_port in
  let rec_ =
    Rec.initial ?stats:(sc "rec") ?span:(sp "rec") ?pool ~key ~local_port
      ~remote_port ()
  in
  let dm = Dm.make ?stats:(sc "dm") ?span:(sp "dm") ?pool ~local_port ~remote_port () in
  R.create engine ?trace ~alloc ~name ~transmit ~deliver:events
    ( osr,
      Conform.osr_rd ~alloc:(osr_c, rd_c) monitors ~conn:name,
      ( rd,
        Conform.rd_cm ~alloc:(rd_c, cm_c) monitors ~conn:name,
        ( cm,
          Conform.cm_rec ~alloc:(cm_c, rec_c) monitors ~conn:name,
          (rec_, Conform.rec_dm ~alloc:(rec_c, dm_c) monitors ~conn:name, dm) ) ) )

let connect t = R.from_above t `Connect
let listen t = R.from_above t `Listen
let write t s = R.from_above t (`Write s)
let read t n = R.from_above t (`Read n)
let close t = R.from_above t `Close
let from_wire t wire = R.from_below t wire
let halt t = R.halt t
let stream_finished t = let osr, _, _ = R.state t in Osr.stream_finished osr

let rec_state t = let _, _, (_, _, (_, _, (rec_, _, _))) = R.state t in rec_
let records_sent t = Rec.records_sent (rec_state t)
let auth_failures t = Rec.auth_failures (rec_state t)

let factory ~key =
  {
    Host.fname = "sublayered-secure";
    peek = Segment.peek_ports;
    make =
      (fun ?(ins = Sublayer.Instrument.none) engine ~name cfg ~local_port
           ~remote_port ~transmit ~events ->
        let app_req, app_ind =
          Conform.app ins.Sublayer.Instrument.monitors ~conn:name
        in
        let t =
          create engine ~ins ~key ~name cfg ~local_port ~remote_port ~transmit
            ~events:(fun e -> app_ind e; events e)
        in
        {
          Host.ep_from_wire = from_wire t;
          ep_connect = (fun () -> app_req `Connect; connect t);
          ep_listen = (fun () -> app_req `Listen; listen t);
          ep_write = (fun str -> app_req (`Write str); write t str);
          ep_read = (fun n -> app_req (`Read n); read t n);
          ep_close = (fun () -> app_req `Close; close t);
          ep_abort = (fun () -> halt t);
          ep_finished = (fun () -> stream_finished t);
        });
  }
