(* Recursive sublayering (E28): a complete inner sublayered-TCP stack
   runs over a Transport.Tunnel that presents an outer (Rec-secured)
   transport connection as a Sublayer.Link — the Ouroboros direction.
   Tests cover exact delivery of concurrent inner flows under E18
   burst loss, bit-reproducibility, outer-death propagation into inner
   give-up, per-level monitor blame, per-level Σ-sojourn identity, and
   the idempotence of Stats.telemetry_source. *)

open Transport

let check = Alcotest.check

let random_data seed n =
  let rng = Bitkit.Rng.create seed in
  String.init n (fun _ -> Char.chr (Bitkit.Rng.int rng 256))

(* --- the Ouroboros harness --------------------------------------- *)

type scenario = {
  engine : Sim.Engine.t;
  inner_a : Host.t;
  inner_b : Host.t;
  tun_a : Tunnel.t;
  tun_b : Tunnel.t;
  outer_cli : Host.conn;
  ab : Bitkit.Slice.t Sim.Channel.t;
  ba : Bitkit.Slice.t Sim.Channel.t;
  stats : Sublayer.Stats.registry;
  tracer : Sim.Tracer.t;
  monitors : Monitor.Runtime.t;
}

(* Outer Rec-secured pair over [channel]; one outer connection wrapped
   in tunnels at both ends; inner hosts at recursion level 1 sharing
   the outer's registry, tracer and monitor runtime (the level tags
   keep them apart). *)
let build ?config ?(secure = true) ~channel ~seed () =
  let engine = Sim.Engine.create ~seed () in
  let stats = Sublayer.Stats.create ~label:"ouroboros" () in
  let tracer = Sim.Tracer.create ~capacity:65536 () in
  let monitors = Monitor.Runtime.create ~label:"ouroboros" () in
  let factory =
    if secure then Tcp_secure.factory ~key:Tcp_secure.demo_key
    else Host.sublayered
  in
  let oa, ob, ab, ba =
    Host.pair_channels engine ?config ~factory_a:factory ~factory_b:factory
      ~stats_a:stats ~stats_b:stats ~tracer ~monitors channel
  in
  Host.listen ob ~port:443;
  let outer_srv = ref None in
  Host.on_accept ob (fun c -> outer_srv := Some c);
  let outer_cli = Host.connect oa ~remote_port:443 () in
  let rec wait_accept () =
    if !outer_srv = None && Sim.Engine.now engine < 30. then begin
      Sim.Engine.run ~until:(Sim.Engine.now engine +. 0.1) engine;
      wait_accept ()
    end
  in
  wait_accept ();
  let srv_conn =
    match !outer_srv with
    | Some c -> c
    | None -> Alcotest.fail "outer connection not accepted"
  in
  let tun_a = Tunnel.create ~id:"tun-a" outer_cli in
  let tun_b = Tunnel.create ~id:"tun-b" srv_conn in
  let ins = Sublayer.Instrument.v ~stats ~tracer ~monitors ~level:1 () in
  let inner_a =
    Host.create engine ?config ~ins ~name:"iA" ~link:(Tunnel.link tun_a) ()
  in
  let inner_b =
    Host.create engine ?config ~ins ~name:"iB" ~link:(Tunnel.link tun_b) ()
  in
  { engine; inner_a; inner_b; tun_a; tun_b; outer_cli; ab; ba; stats;
    tracer; monitors }

let drive_until s ~deadline finished =
  let rec go () =
    if Sim.Engine.now s.engine < deadline && not (finished ()) then begin
      Sim.Engine.run ~until:(Sim.Engine.now s.engine +. 1.0) s.engine;
      go ()
    end
  in
  go ();
  Sim.Engine.run ~until:(Sim.Engine.now s.engine +. 5.0) s.engine

(* E18 burst loss on the outer path. *)
let bursty =
  { (Sim.Channel.burst_lossy ~loss:0.02 ~burst_len:6.) with
    Sim.Channel.delay = 0.005 }

(* Run [flows] concurrent inner connections a->b to completion and
   return (per-flow exact-delivery bools, scenario). *)
let run_flows ?config ?secure ~channel ~seed ~flows ~bytes () =
  let s = build ?config ?secure ~channel ~seed () in
  Host.listen s.inner_b ~port:80;
  let servers = ref [] in
  Host.on_accept s.inner_b (fun c -> servers := c :: !servers);
  let data = List.init flows (fun i -> random_data (seed + 100 + i) bytes) in
  let conns =
    List.map
      (fun d ->
        let c = Host.connect s.inner_a ~remote_port:80 () in
        Host.write c d;
        Host.close c;
        c)
      data
  in
  drive_until s ~deadline:300. (fun () -> List.for_all Host.finished conns);
  (* Inner server conns pair with clients through the ephemeral port. *)
  let delivered =
    List.map2
      (fun c d ->
        match
          List.find_opt
            (fun srv -> Host.remote_port srv = Host.local_port c)
            !servers
        with
        | Some srv -> Host.received srv = d
        | None -> false)
      conns data
  in
  (delivered, s)

(* --- exact delivery at matched burst loss (acceptance criterion) --- *)

let test_ouroboros_exact_delivery () =
  let delivered, s =
    run_flows ~channel:bursty ~seed:70 ~flows:2 ~bytes:30_000 ()
  in
  List.iteri
    (fun i ok -> check Alcotest.bool (Printf.sprintf "flow %d exact" i) true ok)
    delivered;
  check Alcotest.bool "tunnel carried frames" true
    (Tunnel.frames_in s.tun_b > 0 && Tunnel.frames_out s.tun_a > 0);
  (* T1–T3 conformance at both recursion levels: every crossing checked,
     none violated, and the verdict keys keep the levels apart. *)
  List.iter
    (fun v -> Alcotest.failf "conformance violation: %s" v)
    (Monitor.Runtime.violations s.monitors);
  check Alcotest.bool "monitors checked crossings" true
    (Monitor.Runtime.checked s.monitors > 0);
  let tracks =
    List.map (fun sp -> sp.Sim.Tracer.sp_track) (Sim.Tracer.spans s.tracer)
  in
  let has_prefix p k =
    String.length k >= String.length p && String.sub k 0 (String.length p) = p
  in
  check Alcotest.bool "inner tracks level-tagged" true
    (List.exists (has_prefix "l1:iA") tracks);
  check Alcotest.bool "outer tracks bare" true
    (List.exists (has_prefix "A:") tracks);
  (* The shared registry holds both levels' scopes side by side. *)
  let scope_names =
    List.map Sublayer.Stats.scope_name (Sublayer.Stats.scopes s.stats)
  in
  check Alcotest.bool "l1:rd scope present" true
    (List.mem "l1:rd" scope_names);
  check Alcotest.bool "bare rd scope present" true
    (List.mem "rd" scope_names)

(* --- seeded runs are bit-reproducible ----------------------------- *)

let digest ~seed () =
  let delivered, s =
    run_flows ~channel:bursty ~seed ~flows:2 ~bytes:15_000 ()
  in
  let link_stats l =
    let st = Sublayer.Link.stats l in
    Printf.sprintf "%d/%d/%d" st.Sublayer.Link.tx st.Sublayer.Link.rx
      st.Sublayer.Link.dropped
  in
  Printf.sprintf "%s|%d|%d|%s|%s|%.9f|%d"
    (String.concat "," (List.map string_of_bool delivered))
    (Tunnel.frames_out s.tun_a) (Tunnel.frames_in s.tun_b)
    (link_stats (Tunnel.link s.tun_a))
    (link_stats (Tunnel.link s.tun_b))
    (Sim.Engine.now s.engine)
    (Monitor.Runtime.checked s.monitors)

let test_ouroboros_reproducible () =
  check Alcotest.string "same seed, same run" (digest ~seed:71 ())
    (digest ~seed:71 ())

(* --- outer death is inner link-death (satellite 1) ----------------- *)

let test_outer_death_propagates () =
  let config = { Config.default with give_up_after = 5.0; max_retries = 8 } in
  let s = build ~config ~channel:Sim.Channel.ideal ~seed:72 () in
  Host.listen s.inner_b ~port:80;
  let inner_srv = ref None in
  Host.on_accept s.inner_b (fun c -> inner_srv := Some c);
  let c = Host.connect s.inner_a ~remote_port:80 () in
  Host.write c (random_data 73 20_000);
  (* Feed the pipeline briefly, then partition the outer channels for
     good: the outer RD exhausts its retries, aborts, the tunnel kills
     the link, and the inner stack must give up rather than retransmit
     into the dead tunnel. *)
  let t0 = Sim.Engine.now s.engine in
  Sim.Faultplan.apply s.engine
    [ Sim.Faultplan.Partition { at = t0 +. 0.3 } ]
    [ Sim.Faultplan.target ~name:"outer-ab" s.ab;
      Sim.Faultplan.target ~name:"outer-ba" s.ba ];
  ignore
    (Sim.Engine.at s.engine ~time:(t0 +. 0.5) (fun () ->
         Host.write c (random_data 74 20_000)));
  drive_until s ~deadline:60. (fun () -> Host.aborted c);
  check Alcotest.bool "outer connection aborted" true
    (Host.aborted s.outer_cli);
  check Alcotest.bool "tunnel link dead" false
    (Sublayer.Link.alive (Tunnel.link s.tun_a));
  check Alcotest.bool "inner connection aborted" true (Host.aborted c);
  (* Once everything has given up the engine must quiesce: no inner
     retransmission timers may keep firing into the dead tunnel. *)
  let frames_before = Tunnel.frames_out s.tun_a in
  Sim.Engine.run ~until:(Sim.Engine.now s.engine +. 60.) s.engine;
  check Alcotest.int "no traffic after give-up" frames_before
    (Tunnel.frames_out s.tun_a)

(* --- per-level Σ-sojourn identity (tracing at both levels) --------- *)

let test_sojourn_identity_per_level () =
  let s = build ~secure:false ~channel:Sim.Channel.ideal ~seed:75 () in
  Host.listen s.inner_b ~port:80;
  let c = Host.connect s.inner_a ~remote_port:80 () in
  (* One sub-MSS write per 100 ms: each becomes one inner segment whose
     buffer/flight/reasm spans tile its end-to-end interval. *)
  for i = 0 to 9 do
    ignore
      (Sim.Engine.at s.engine
         ~time:(1.0 +. (0.1 *. Float.of_int i))
         (fun () -> Host.write c (String.make 400 (Char.chr (Char.code 'a' + i)))))
  done;
  ignore (Sim.Engine.at s.engine ~time:2.5 (fun () -> Host.close c));
  Sim.Engine.run ~until:60. s.engine;
  let spans = Sim.Tracer.spans s.tracer in
  let has_prefix p k =
    String.length k >= String.length p && String.sub k 0 (String.length p) = p
  in
  let interesting sp =
    match (sp.Sim.Tracer.sp_sublayer, sp.Sim.Tracer.sp_name) with
    | ("osr" | "l1:osr"), ("buffer" | "reasm") | ("rd" | "l1:rd"), "flight" ->
        true
    | _ -> false
  in
  (* Group by trace, then check the identity for every complete
     single-segment trace — separately per recursion level, which the
     track prefix identifies. *)
  let by_trace = Hashtbl.create 64 in
  List.iter
    (fun sp ->
      if interesting sp && sp.Sim.Tracer.sp_trace <> 0 then
        Hashtbl.replace by_trace sp.Sim.Tracer.sp_trace
          (sp :: Option.value ~default:[] (Hashtbl.find_opt by_trace sp.Sim.Tracer.sp_trace)))
    spans;
  let checked_l0 = ref 0 and checked_l1 = ref 0 in
  Hashtbl.iter
    (fun trace ss ->
      let has name = List.exists (fun sp -> sp.Sim.Tracer.sp_name = name) ss in
      if List.length ss = 3 && has "buffer" && has "flight" && has "reasm"
      then begin
        let inner = List.exists (fun sp -> has_prefix "l1:" sp.Sim.Tracer.sp_track) ss in
        if inner then incr checked_l1 else incr checked_l0;
        let sum =
          List.fold_left (fun acc sp -> acc +. Sim.Tracer.duration sp) 0. ss
        in
        let t0 =
          List.fold_left (fun acc sp -> Float.min acc sp.Sim.Tracer.sp_start)
            infinity ss
        in
        let t1 =
          List.fold_left (fun acc sp -> Float.max acc sp.Sim.Tracer.sp_end)
            neg_infinity ss
        in
        if Float.abs (sum -. (t1 -. t0)) > 1e-6 then
          Alcotest.failf
            "trace %d (level %d): sojourns sum to %.9f, end-to-end %.9f" trace
            (if inner then 1 else 0) sum (t1 -. t0)
      end)
    by_trace;
  check Alcotest.bool "inner traces checked" true (!checked_l1 > 0);
  check Alcotest.bool "outer traces checked" true (!checked_l0 > 0)

(* --- per-level monitor blame under mutation (satellite 3) ---------- *)

module Machine = Sublayer.Machine

(* A benign RD stand-in: comes up on Connect, absorbs transmissions. *)
module Sink_rd = struct
  let name = "sink-rd"

  type t = unit
  type up_req = Iface.rd_req
  type up_ind = Iface.rd_ind
  type down_req = unit
  type down_ind = unit
  type timer = Machine.Nothing.t

  let handle_up_req () : up_req -> t * (up_ind, down_req, timer) Machine.action list = function
    | `Connect | `Listen -> ((), [ Machine.Up `Established ])
    | _ -> ((), [])

  let handle_down_ind () () = ((), [])
  let handle_timer () (t : timer) = Machine.Nothing.absurd t
end

(* Mutated RD: acknowledges one byte beyond anything transmitted. *)
module Greedy_rd = struct
  include Sink_rd

  let name = "greedy-rd"

  let handle_up_req () : up_req -> t * (up_ind, down_req, timer) Machine.action list = function
    | `Connect | `Listen -> ((), [ Machine.Up `Established ])
    | `Transmit (off, len, _) ->
        ((), [ Machine.Up (`Acked (off + len + 1, Bitkit.Slice.of_string "", None)) ])
    | _ -> ((), [])
end

module R_sink = Sublayer.Runtime.Make (Machine.Stack (Conform.P_osr_rd) (Sink_rd))
module R_greedy = Sublayer.Runtime.Make (Machine.Stack (Conform.P_osr_rd) (Greedy_rd))

let buf n = Bitkit.Wirebuf.of_string (String.make n 'x')

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
  at 0

(* Two stacks probed into one runtime, one per recursion level: the
   level tag on the probe key is what makes the blame unambiguous. *)
let mutation_levels ~mutate_inner =
  let engine = Sim.Engine.create ~seed:5 () in
  let monitors = Monitor.Runtime.create ~label:"levels" () in
  let ins0 = Sublayer.Instrument.v ~monitors () in
  let ins1 = Sublayer.Instrument.v ~monitors ~level:1 () in
  let outer_key = Sublayer.Instrument.tagged_name ins0 "oA:443>49152" in
  let inner_key = Sublayer.Instrument.tagged_name ins1 "iA:80>49152" in
  let legal key =
    let t =
      R_sink.create engine ~name:key ~transmit:ignore ~deliver:ignore
        (Conform.osr_rd (Some monitors) ~conn:key, ())
    in
    R_sink.from_above t `Connect;
    R_sink.from_above t (`Transmit (0, 100, buf 100))
  in
  let buggy key =
    let t =
      R_greedy.create engine ~name:key ~transmit:ignore ~deliver:ignore
        (Conform.osr_rd (Some monitors) ~conn:key, ())
    in
    R_greedy.from_above t `Connect;
    R_greedy.from_above t (`Transmit (0, 100, buf 100))
  in
  if mutate_inner then begin
    legal outer_key;
    buggy inner_key
  end
  else begin
    legal inner_key;
    buggy outer_key
  end;
  match Monitor.Runtime.violations monitors with
  | [ msg ] -> msg
  | msgs ->
      Alcotest.failf "wanted exactly one violation, got %d" (List.length msgs)

let test_blame_inner_never_outer () =
  let msg = mutation_levels ~mutate_inner:true in
  check Alcotest.bool "rd blamed" true (contains msg "rd violated");
  check Alcotest.bool "inner key named" true (contains msg "[l1:iA:80>49152]");
  check Alcotest.bool "outer key untouched" false (contains msg "oA:443")

let test_blame_outer_never_inner () =
  let msg = mutation_levels ~mutate_inner:false in
  check Alcotest.bool "rd blamed" true (contains msg "rd violated");
  check Alcotest.bool "outer key named" true (contains msg "[oA:443>49152]");
  check Alcotest.bool "inner level untouched" false (contains msg "l1:")

(* --- telemetry_source idempotence (satellite 2) -------------------- *)

let test_telemetry_source_idempotent () =
  let stats = Sublayer.Stats.create ~label:"reg" () in
  let scope = Sublayer.Stats.scope stats "rd" in
  let acks = Sublayer.Stats.counter scope "acks" in
  let tele = Sim.Telemetry.create () in
  Sublayer.Stats.telemetry_source tele ~name:"host" stats;
  (* Registry owners and hosts may both try; the second is a no-op. *)
  Sublayer.Stats.telemetry_source tele ~name:"host" stats;
  Sim.Telemetry.sample_now tele ~now:0.0;
  Sublayer.Stats.incr acks;
  Sim.Telemetry.sample_now tele ~now:1.0;
  (match Sim.Telemetry.last_sample tele with
  | Some s ->
      let hits = List.filter (fun (k, _) -> k = "host.rd.acks") s.Sim.Telemetry.det in
      check
        Alcotest.(list (pair string int))
        "source registered once" [ ("host.rd.acks", 1) ] hits
  | None -> Alcotest.fail "no sample");
  (* A different telemetry instance is a fresh pair and does register. *)
  let tele2 = Sim.Telemetry.create () in
  Sublayer.Stats.telemetry_source tele2 ~name:"host" stats;
  Sim.Telemetry.sample_now tele2 ~now:0.0;
  Sublayer.Stats.incr acks;
  Sim.Telemetry.sample_now tele2 ~now:1.0;
  match Sim.Telemetry.last_sample tele2 with
  | Some s ->
      check
        Alcotest.(list (pair string int))
        "second instance registers" [ ("host.rd.acks", 1) ]
        (List.filter (fun (k, _) -> k = "host.rd.acks") s.Sim.Telemetry.det)
  | None -> Alcotest.fail "no sample on second instance"

(* --- Pinned schedule: seeded Rec-secured tunnel runs — one under burst
   loss, one that also corrupts outer segments so Rec rejects forged
   records — fire the same events, end at the same virtual instant and
   leave the same counters (both levels, Rec's included) as the
   reference runs recorded for this test. Any observable change to the
   record layer or the tunnel framing moves one of them. --- *)

let pinned_run (seed, corruption) =
  let channel = { bursty with Sim.Channel.corruption } in
  let delivered, s = run_flows ~channel ~seed ~flows:2 ~bytes:40_000 () in
  let snapshot = Sublayer.Stats.snapshot_to_json (Sublayer.Stats.snapshot s.stats) in
  ( List.for_all Fun.id delivered,
    Sim.Engine.events_fired s.engine,
    Printf.sprintf "%h" (Sim.Engine.now s.engine),
    snapshot )

let test_pinned_schedule () =
  List.iter
    (fun ((seed, corruption), (events, vtime, digest)) ->
      let name = Printf.sprintf "seed %d corruption %.2f" seed corruption in
      let ok, ev, t, snapshot = pinned_run (seed, corruption) in
      check Alcotest.bool (name ^ " delivered exactly") true ok;
      check Alcotest.int (name ^ " events") events ev;
      check Alcotest.string (name ^ " end time") vtime t;
      check Alcotest.string
        (Printf.sprintf "%s stats digest of %s" name snapshot)
        digest (Digest.to_hex (Digest.string snapshot)))
    [ ((71, 0.0), (581, "0x1.8666666666666p+2", "a1117e883e8e053a635679acf2f7704b"));
      ((76, 0.03), (605, "0x1.8666666666666p+2", "3947b6dbf7d37a937fc90027dc633808")) ]

(* The bytes copied in one pinned run. The tunnel reads the outer
   stream from the connection's buffer, so no outer chunk is copied into
   a string on its way to the deframer. *)
let test_pinned_copies () =
  Bitkit.Slice.reset_copied ();
  let ok, _, _, _ = pinned_run (71, 0.0) in
  check Alcotest.bool "delivered exactly" true ok;
  check Alcotest.int "bytes copied" 652_075 (Bitkit.Slice.copied_bytes ())

(* --- Tunnel framing: linear work however finely the stream is cut --- *)

let frame record =
  let n = String.length record in
  String.init 4 (fun i -> Char.chr ((n lsr (8 * (3 - i))) land 0xFF)) ^ record

let chunks_of ~size s =
  List.init
    ((String.length s + size - 1) / size)
    (fun i -> String.sub s (i * size) (min size (String.length s - (i * size))))

let push_all d chunks =
  let got = ref [] in
  let ok =
    List.for_all
      (fun c ->
        Tunnel.Deframer.push d c ~deliver:(fun r -> got := Bitkit.Slice.to_string r :: !got))
      chunks
  in
  (ok, List.rev !got)

(* Re-joining the whole buffer on every chunk made one 4 MiB record cut
   into 1 KiB chunks cost ~8 GiB of copying; now the buffered bytes are
   joined once, so the words allocated stay within a small multiple of
   the record. *)
let test_deframer_multi_mib_linear () =
  let record = random_data 80 (4 lsl 20) in
  let chunks = chunks_of ~size:1024 (frame record) in
  let d = Tunnel.Deframer.create () in
  let delivered = ref None in
  let words () =
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let before = words () in
  let ok =
    List.for_all
      (fun c -> Tunnel.Deframer.push d c ~deliver:(fun r -> delivered := Some r))
      chunks
  in
  let spent = words () -. before in
  let record_words = float_of_int (String.length record / (Sys.word_size / 8)) in
  check Alcotest.bool "framing intact" true ok;
  check Alcotest.bool "record delivered whole" true
    (match !delivered with Some r -> Bitkit.Slice.equal_string r record | None -> false);
  check Alcotest.int "nothing left buffered" 0 (Tunnel.Deframer.buffered d);
  check Alcotest.bool
    (Printf.sprintf "drain work %.0f words for a %.0f-word record" spent record_words)
    true
    (spent <= 3. *. record_words)

(* Any chunking of a stream of records delivers the same records in the
   same order. *)
let prop_deframer_chunking_invariant =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"deframer: chunking never changes the records"
       QCheck2.Gen.(
         pair
           (list_size (0 -- 12) (string_size ~gen:char (0 -- 300)))
           (list_size (1 -- 20) (1 -- 200)))
       (fun (records, cuts) ->
         let stream = String.concat "" (List.map frame records) in
         let rec cut pos = function
           | _ when pos >= String.length stream -> []
           | [] -> [ String.sub stream pos (String.length stream - pos) ]
           | k :: ks ->
               let k = min k (String.length stream - pos) in
               String.sub stream pos k :: cut (pos + k) ks
         in
         let d = Tunnel.Deframer.create () in
         push_all d (cut 0 cuts) = (true, records) && Tunnel.Deframer.buffered d = 0))

(* A prefix past [max_frame] breaks the framing at once — even split
   across chunks, before any of the announced bytes arrive — and nothing
   is delivered after it. *)
let test_deframer_oversize_prefix () =
  let bad = Tunnel.max_frame + 1 in
  let prefix = String.init 4 (fun i -> Char.chr ((bad lsr (8 * (3 - i))) land 0xFF)) in
  let d = Tunnel.Deframer.create () in
  let ok, got =
    push_all d [ frame "first"; String.sub prefix 0 2; String.sub prefix 2 2; frame "after" ]
  in
  check Alcotest.bool "framing reported broken" false ok;
  check Alcotest.(list string) "only the record before it" [ "first" ] got;
  check Alcotest.bool "stays broken" false
    (Tunnel.Deframer.push d (frame "x") ~deliver:(fun _ -> Alcotest.fail "delivered"))

let () =
  Alcotest.run "tunnel"
    [ ( "ouroboros",
        [ Alcotest.test_case "exact delivery under burst loss" `Quick
            test_ouroboros_exact_delivery;
          Alcotest.test_case "bit-reproducible" `Quick
            test_ouroboros_reproducible;
          Alcotest.test_case "sojourn identity per level" `Quick
            test_sojourn_identity_per_level ] );
      ( "pinned",
        [ Alcotest.test_case "seeded tunnel schedule" `Quick test_pinned_schedule;
          Alcotest.test_case "bytes copied in a seeded run" `Quick test_pinned_copies ] );
      ( "framing",
        [ Alcotest.test_case "4 MiB record in 1 KiB chunks is linear" `Quick
            test_deframer_multi_mib_linear;
          prop_deframer_chunking_invariant;
          Alcotest.test_case "oversize prefix breaks framing" `Quick
            test_deframer_oversize_prefix ] );
      ( "link death",
        [ Alcotest.test_case "outer abort halts inner stacks" `Quick
            test_outer_death_propagates ] );
      ( "levels",
        [ Alcotest.test_case "inner violation blames inner" `Quick
            test_blame_inner_never_outer;
          Alcotest.test_case "outer violation blames outer" `Quick
            test_blame_outer_never_inner ] );
      ( "telemetry",
        [ Alcotest.test_case "double registration is a no-op" `Quick
            test_telemetry_source_idempotent ] ) ]
