(* Timed copies of the library's stack factories, for the traced rep.

   [Tcp_sublayered.create] and [Tcp_secure.create] are rebuilt here from
   public modules with each sublayer wrapped in {!Timing.Timed}, the
   composed stack wrapped once more as ["stack"], and the same scopes,
   pool, ISN and [Conform] probes as the library. The untraced reps run
   the library factories themselves; the transparency gate compares
   {!Workloads.fingerprint} across reps, so both must produce the same
   run. *)

module I = Sublayer.Instrument
module Machine = Sublayer.Machine
open Transport

module Timed_stack = Timing.Timed (struct
  let layer = "stack"
end)

(* The library passes an allocation spec whose cells are all [None]
   unless telemetry is on; no workload turns telemetry on. *)
let no_alloc =
  { Sublayer.Runtime.al_top = None; al_bottom = None; al_app = None;
    al_wire = None; al_timer = (fun _ -> None) }

let check_ins ins =
  if ins.I.telemetry <> None then
    invalid_arg "Stacks: timed factories do not install allocation cells"

let endpoint ~app_req ~from_above ~from_below ~halt ~finished =
  {
    Host.ep_from_wire = from_below;
    ep_connect = (fun () -> app_req `Connect; from_above `Connect);
    ep_listen = (fun () -> app_req `Listen; from_above `Listen);
    ep_write = (fun s -> app_req (`Write s); from_above (`Write s));
    ep_read = (fun n -> app_req (`Read n); from_above (`Read n));
    ep_close = (fun () -> app_req `Close; from_above `Close);
    ep_abort = halt;
    ep_finished = finished;
  }

(* [algo] with every call into its instances timed as [layer]. *)
let timed_cc layer (algo : Cc.algo) =
  let id = Timing.id layer in
  let create ~mss ~now =
    let i = algo.Cc.create ~mss ~now in
    {
      i with
      Cc.window = (fun () -> Timing.call1 id i.Cc.window ());
      on_ack =
        (fun ~bytes ~rtt ->
          Timing.enter id;
          match i.Cc.on_ack ~bytes ~rtt with
          | () -> Timing.leave ()
          | exception e -> Timing.leave (); raise e);
      on_loss = Timing.call1 id i.Cc.on_loss;
      on_ecn = Timing.call1 id i.Cc.on_ecn;
    }
  in
  { algo with Cc.create }

(* The Figure 5 stack of [Tcp_sublayered], timed under layer names
   prefixed by [P.prefix] ("" at level 0, "l1_" inside a tunnel). *)
module Level (P : sig
  val prefix : string
end) =
struct
  module T (S : Machine.S) =
    Timing.Timed
      (struct
        let layer = P.prefix ^ S.name
      end)
      (S)

  module Lower = Machine.Stack (T (Cm)) (Machine.Stack (Conform.P_pdu) (T (Dm)))
  module Middle = Machine.Stack (T (Rd)) (Machine.Stack (Conform.P_rd_cm) (Lower))
  module Full = Machine.Stack (T (Osr)) (Machine.Stack (Conform.P_osr_rd) (Middle))
  module R = Sublayer.Runtime.Make (Timed_stack (Full))

  let config = { Config.default with Config.cc = timed_cc (P.prefix ^ "cc") Config.default.Config.cc }

  let factory =
    {
      Host.fname = "sublayered";
      peek = Segment.peek_ports;
      make =
        (fun ?(ins = I.none) engine ~name cfg ~local_port ~remote_port ~transmit
             ~events ->
          check_ins ins;
          let app_req, app_ind = Conform.app ins.I.monitors ~conn:name in
          let now () = Sim.Engine.now engine in
          let isn = Config.make_isn cfg engine in
          let monitors = ins.I.monitors and pool = ins.I.pool in
          let sc sub = I.scope ins sub in
          let sp sub = I.span ins ~now ~track:name sub in
          let osr =
            Osr.initial ?stats:(sc "osr") ?cc_stats:(sc "cc") ?span:(sp "osr")
              ?pool cfg ~now
          in
          let rd = Rd.initial ?stats:(sc "rd") ?span:(sp "rd") cfg ~now in
          let cm =
            Cm.initial ?stats:(sc "cm") ?span:(sp "cm") cfg ~isn ~local_port
              ~remote_port
          in
          let dm =
            Dm.make ?stats:(sc "dm") ?span:(sp "dm") ?pool ~local_port ~remote_port ()
          in
          let r =
            R.create engine ~alloc:no_alloc ~name ~transmit
              ~deliver:(fun e -> app_ind e; events e)
              ( osr,
                ( Conform.osr_rd monitors ~conn:name,
                  ( rd,
                    ( Conform.rd_cm monitors ~conn:name,
                      (cm, (Conform.cm_dm monitors ~conn:name, dm)) ) ) ) )
          in
          endpoint ~app_req ~from_above:(R.from_above r) ~from_below:(R.from_below r)
            ~halt:(fun () -> R.halt r)
            ~finished:(fun () -> Osr.stream_finished (fst (R.state r))));
    }
end

module L0 = Level (struct
  let prefix = ""
end)

module L1 = Level (struct
  let prefix = "l1_"
end)

(* [Tcp_secure]: the level-0 stack with [Rec] slotted in below CM. *)
module Secure = struct
  module T = L0.T
  module Bottom = Machine.Stack (T (Rec)) (Machine.Stack (Conform.P_pdu) (T (Dm)))
  module Lower = Machine.Stack (T (Cm)) (Machine.Stack (Conform.P_pdu) (Bottom))
  module Middle = Machine.Stack (T (Rd)) (Machine.Stack (Conform.P_rd_cm) (Lower))
  module Full = Machine.Stack (T (Osr)) (Machine.Stack (Conform.P_osr_rd) (Middle))
  module R = Sublayer.Runtime.Make (Timed_stack (Full))

  let factory ~key =
    {
      Host.fname = "sublayered-secure";
      peek = Segment.peek_ports;
      make =
        (fun ?(ins = I.none) engine ~name cfg ~local_port ~remote_port ~transmit
             ~events ->
          check_ins ins;
          let app_req, app_ind = Conform.app ins.I.monitors ~conn:name in
          let now () = Sim.Engine.now engine in
          let isn = Config.make_isn cfg engine in
          let monitors = ins.I.monitors and pool = ins.I.pool in
          let sc sub = I.scope ins sub in
          let sp sub = I.span ins ~now ~track:name sub in
          let osr =
            Osr.initial ?stats:(sc "osr") ?cc_stats:(sc "cc") ?span:(sp "osr")
              ?pool cfg ~now
          in
          let rd = Rd.initial ?stats:(sc "rd") ?span:(sp "rd") cfg ~now in
          let cm =
            Cm.initial ?stats:(sc "cm") ?span:(sp "cm") cfg ~isn ~local_port
              ~remote_port
          in
          let rec_ =
            Rec.initial ?stats:(sc "rec") ?span:(sp "rec") ?pool ~key ~local_port
              ~remote_port ()
          in
          let dm =
            Dm.make ?stats:(sc "dm") ?span:(sp "dm") ?pool ~local_port ~remote_port ()
          in
          let r =
            R.create engine ~alloc:no_alloc ~name ~transmit
              ~deliver:(fun e -> app_ind e; events e)
              ( osr,
                ( Conform.osr_rd monitors ~conn:name,
                  ( rd,
                    ( Conform.rd_cm monitors ~conn:name,
                      ( cm,
                        ( Conform.cm_rec monitors ~conn:name,
                          (rec_, (Conform.rec_dm monitors ~conn:name, dm)) ) ) ) ) ) )
          in
          endpoint ~app_req ~from_above:(R.from_above r) ~from_below:(R.from_below r)
            ~halt:(fun () -> R.halt r)
            ~finished:(fun () -> Osr.stream_finished (fst (R.state r))));
    }
end

(* The datalink stack is composed inside [Datalink.Stack.endpoint], so
   its mechanisms are timed through the spec instead: the ARQ module's
   transitions and the detector, framer and line-code closures. The
   composed stack and the layer machines around the closures are
   therefore charged to [outside] on the datalink workload. *)
let datalink_spec (spec : Datalink.Stack.spec) =
  let arq = Timing.id "arq" and det = Timing.id "detector"
  and frm = Timing.id "framer" and line = Timing.id "linecode" in
  let module A = (val spec.Datalink.Stack.arq : Datalink.Arq.S) in
  let module TA = struct
    include A

    let handle_up_req t x = Timing.call2 arq A.handle_up_req t x
    let handle_down_ind t x = Timing.call2 arq A.handle_down_ind t x
    let handle_timer t x = Timing.call2 arq A.handle_timer t x
  end in
  let d = spec.detector and f = spec.framer and l = spec.linecode in
  {
    spec with
    Datalink.Stack.arq = (module TA : Datalink.Arq.S);
    detector =
      {
        d with
        Datalink.Detector.protect = Timing.call1 det d.Datalink.Detector.protect;
        verify = Timing.call1 det d.verify;
        verify_slice = Timing.call1 det d.verify_slice;
        chain_digest_into = Timing.call3 det d.chain_digest_into;
      };
    framer =
      {
        f with
        Datalink.Framer.frame = Timing.call1 frm f.Datalink.Framer.frame;
        deframe = Timing.call1 frm f.deframe;
      };
    linecode =
      {
        l with
        Datalink.Linecode.encode = Timing.call1 line l.Datalink.Linecode.encode;
        decode = Timing.call1 line l.decode;
      };
  }
