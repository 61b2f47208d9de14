(* One seeded many-flow fabric run, reduced to what a schedule identity
   compares. Every "this only observes" claim — a buffer pool, conformance
   monitors, telemetry — is the same check: run the fabric
   with and without the instrument, and both runs must fire the same
   events, end at the same virtual time, deliver the same flows exactly
   and record the same per-slice live-event samples. *)

type t = {
  fired : int;
  vtime : float;
  exact : int;
  samples : (float * (string * int) list) list;
}

(* Four hosts and 60 flows of 1 KiB at 3 % loss unless told otherwise;
   [monitors] also becomes the soak's invariant and [telemetry] is ticked
   at every slice, as a real run would wire them. *)
let run ?stats ?monitors ?telemetry ?pool ?(loss = 0.03)
    ?(flows = 60) ?(bytes = 1024) ~seed () =
  let engine = Sim.Engine.create ~seed () in
  let fabric =
    Transport.Fabric.create engine ~hosts:4 ?stats ?monitors ?telemetry ?pool
      ~channel:(Sim.Channel.lossy loss) ~flows ~bytes ()
  in
  let r =
    Sim.Workload.run ~spacing:0.01 ~name:"fingerprint" ~engine ~flows
      ?invariant:(Option.map Monitor.Runtime.invariant monitors)
      ?telemetry:(Option.map (fun t -> [ t ]) telemetry)
      (Transport.Fabric.ops fabric)
  in
  if not (Sim.Workload.ok r) then
    Alcotest.failf "fingerprint workload not ok: %a" Sim.Workload.pp_report r;
  let soak = r.Sim.Workload.soak in
  { fired = soak.Sim.Soak.events_fired;
    vtime = soak.Sim.Soak.vtime;
    exact = r.Sim.Workload.exact;
    samples = soak.Sim.Soak.samples }

let check_same base other =
  Alcotest.(check int) "events fired identical" base.fired other.fired;
  Alcotest.(check bool) "virtual end time identical" true
    (base.vtime = other.vtime);
  Alcotest.(check int) "exact flows identical" base.exact other.exact;
  Alcotest.(check bool) "per-slice samples recorded" true (base.samples <> []);
  Alcotest.(check bool) "per-slice samples identical" true
    (base.samples = other.samples)
