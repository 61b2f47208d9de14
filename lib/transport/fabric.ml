(* N-host port-switched fabric: the transport side of the E21 scale
   workload. A shared transmit closure peeks the destination port of
   each wire segment and forwards it to the owning host's channel — a
   learning switch whose forwarding table is filled in at flow-setup
   time. Ports are allocated globally (flow [f] serves on [1024 + 2f],
   connects from [1025 + 2f]), so 5k flows stay well clear of the hosts'
   49152+ ephemeral range. One construction ([build]) serves both
   topologies: one ingress channel per host on one engine ([create]), or
   one channel per directed host pair across a shard group
   ([create_sharded]). *)

type flow = {
  f_data : string;
  mutable f_client : Host.conn option;
  mutable f_server : Host.conn option;
}

type t = {
  hosts : Host.t array;
  flows : flow array;
  site : int array; (* host -> the engine (shard) it runs on *)
}

let server_port f = 1024 + (2 * f)
let client_port f = 1025 + (2 * f)

(* DM ports are 16-bit: past this many flows the last flows' ports would
   be truncated on the wire and those flows could never finish. *)
let max_flows = ((0xFFFF - client_port 0) / 2) + 1

let host_of_port table port = if port >= 0 && port <= 0xFFFF then table.(port) else -1

(* The fabric owns its observability instances, so it also registers the
   sampling sources: the stats registry (once per engine, not per host),
   the engine's own gauges, the process-global zero-copy counter and the
   trace-ring drop counter (per-shard-sized, so nondet), plus the GC
   source. Every engine's instance registers the same names, so summing
   the deterministic series across shards
   ([Telemetry.merged_deterministic]) reproduces the single-engine series
   key for key. *)
let telemetry_sources (ins : Sublayer.Instrument.t) ~slice_global tele engine =
  Option.iter (Sublayer.Stats.telemetry_source tele ~name:"fabric") ins.stats;
  Sim.Telemetry.add_counters tele ~name:"engine" (fun () ->
      [ ("events", Sim.Engine.events_fired engine) ]);
  Sim.Telemetry.add_gauges tele ~name:"engine" (fun () ->
      [ ("live", Sim.Engine.live engine); ("pending", Sim.Engine.pending engine) ]);
  (* [Slice.copied_bytes] is one process-global atomic: in a sharded run
     only the shard-0 instance may carry it, or the merge counts it once
     per shard. *)
  if slice_global then
    Sim.Telemetry.add_counters tele ~name:"slice" (fun () ->
        [ ("copied_bytes", Bitkit.Slice.copied_bytes ()) ]);
  Option.iter
    (fun tr ->
      Sim.Telemetry.add_counters tele ~det:false ~name:"tracer" (fun () ->
          [ ("dropped", Sim.Tracer.dropped tr) ]))
    ins.tracer;
  Sim.Telemetry.add_gc tele

(* The one construction. Host [h] runs on [engines.(place h)] and records
   into [ins.(place h)]; [links ingress] builds the channels and returns
   the one carrying segments from host [src] to host [dst], which hands
   them to [ingress.(dst)]. *)
let build ~who ~engines ~ins ~place ~links ~hosts ~config ~factory ~seed ~flows ~bytes =
  if hosts < Array.length engines then
    invalid_arg (who ^ ": need at least one host per engine");
  if flows < 0 then invalid_arg (who ^ ": negative flow count");
  if flows > max_flows then
    invalid_arg
      (Printf.sprintf
         "%s: %d flows exceed the 16-bit port space (flow f serves on port 1024 + 2f, \
          so at most %d flows)"
         who flows max_flows);
  if bytes < 0 then invalid_arg (who ^ ": negative flow size");
  (* Register sources and hooks only once the arguments are validated,
     so a raise never leaves the caller's engine or telemetry polluted by
     a fabric that was never built. *)
  Array.iteri
    (fun s (i : Sublayer.Instrument.t) ->
      Option.iter
        (fun tele -> telemetry_sources i ~slice_global:(s = 0) tele engines.(s))
        i.telemetry)
    ins;
  (* Only [create] may give its bundle a pool, so a pool is the one
     engine's. Machine-held loans (DM emits, OSR stages, detector
     trailers) are deferred; they fall due once the event that produced
     them has fully applied. *)
  let pool = ins.(0).pool in
  Option.iter
    (fun p -> Sim.Engine.after_event engines.(0) (fun () -> Bitkit.Pool.drain_deferred p))
    pool;
  let site = Array.init hosts place in
  (* The learning switch's table: the host serving each 16-bit port, -1
     for a port no flow uses. *)
  let port_host = Array.make 0x10000 (-1) in
  let ingress = Array.make hosts (fun (_ : Bitkit.Slice.t) -> ()) in
  let chan = links ingress in
  let transmit s =
    match factory.Host.peek s with
    | None -> ()
    | Some (src_port, dst_port) -> (
        match host_of_port port_host dst_port with
        | -1 -> ()
        | dst ->
            (* Every fabric port is registered at setup, so the source
               lookup only falls back when a foreign factory is probing. *)
            let src = match host_of_port port_host src_port with -1 -> dst | h -> h in
            let ch = chan ~src ~dst in
            let loaned =
              match pool with
              | None -> false
              | Some p -> (
                  match Bitkit.Pool.slot_of_slice p s with
                  | None -> false
                  | Some slot ->
                      (* Take over the emitting machine's loan for the
                         flight: the channel holds this reference until
                         the last scheduled delivery returns. *)
                      Bitkit.Pool.retain p slot;
                      Sim.Channel.send ~loan:(p, slot) ch s;
                      true)
            in
            if not loaned then Sim.Channel.send ch s)
  in
  let harr =
    Array.init hosts (fun h ->
        let name = Printf.sprintf "H%d" h in
        Host.create engines.(site.(h)) ~config ~factory ~ins:ins.(site.(h)) ~name
          ~link:(Sublayer.Link.make ~id:name ~transmit ())
          ())
  in
  Array.iteri
    (fun h host -> ingress.(h) <- Sublayer.Link.deliver (Host.wire_link host))
    harr;
  (* Per-flow payloads come from one seeded stream, drawn at construction
     time on the main domain, so runs are exactly reproducible at every
     shard count and the exact-delivery check is content-sensitive. *)
  let rng = Bitkit.Rng.create seed in
  let farr =
    Array.init flows (fun _ ->
        { f_data = Bitkit.Rng.bytes rng bytes;
          f_client = None; f_server = None })
  in
  let by_server_port = Hashtbl.create (max 1 flows) in
  for f = 0 to flows - 1 do
    let sh = (f + 1) mod hosts and ch = f mod hosts in
    port_host.(server_port f) <- sh;
    port_host.(client_port f) <- ch;
    Host.listen harr.(sh) ~port:(server_port f);
    Hashtbl.replace by_server_port (server_port f) f
  done;
  Array.iter
    (fun host ->
      Host.on_accept host (fun c ->
          match Hashtbl.find_opt by_server_port (Host.local_port c) with
          | None -> ()
          | Some f ->
              farr.(f).f_server <- Some c;
              Host.on_event c (function
                | `Peer_closed -> Host.close c
                | _ -> ())))
    harr;
  { hosts = harr; flows = farr; site }

let create engine ?(hosts = 8) ?(config = Config.default)
    ?(factory = Host.sublayered) ?stats ?tracer ?monitors ?telemetry ?pool
    ?(seed = 7) ~channel ~flows ~bytes () =
  (* One ingress channel per host (its "NIC"), shared by every source. *)
  let links ingress =
    let nic =
      Array.init hosts (fun dst ->
          Sim.Channel.create engine channel ~size:Bitkit.Slice.length
            ~corrupt:Sim.Channel.corrupt_slice
            ~deliver:(fun s -> ingress.(dst) s)
            ())
    in
    fun ~src:_ ~dst -> nic.(dst)
  in
  build ~who:"Fabric.create" ~engines:[| engine |] ~place:(fun _ -> 0) ~links
    ~ins:[| Sublayer.Instrument.v ?stats ?tracer ?monitors ?telemetry ?pool () |]
    ~hosts ~config ~factory ~seed ~flows ~bytes

(* The per-pair topology differs from [create]'s in exactly the ways
   domain partitioning demands, and in no other:

   - Hosts are placed on shards by contiguous blocks
     ([h * shards / hosts]), so with flow [f] running from host [f mod
     hosts] to [(f+1) mod hosts], only the block-boundary host pairs
     cross shards.
   - Every directed host pair has its own channel (a shared ingress
     channel would be mutated by every source shard at once), built on
     the {e source} host's engine — sends draw coins and read the
     fault-mutable config on the source domain — with a private RNG
     stream seeded by (seed, src, dst). Per-link streams make the draw
     sequence independent of global event interleave, so the
     [shards = 1] instance is the bit-identity baseline for every other
     shard count.
   - Cross-shard channels schedule deliveries through {!Sim.Shard.post}:
     the message timestamp is [now + latency] with [latency >= delay >=
     lookahead], the conduits' conservative promise (validated here; and
     fault plans never touch [delay]).
   - Fault plans for a link run on the source shard's engine, mutating
     config the source domain reads.
   - Instrument bundles are per shard (single-domain mutable state), and
     a pool, which one engine drains, is refused. Merge after the run
     with [Monitor.Runtime.merged_verdicts] /
     [Tracer.merged_chrome_json]. *)
let create_sharded shard ?(hosts = 8) ?(config = Config.default)
    ?(factory = Host.sublayered) ?ins ?(seed = 7) ?(link_faults = fun _ -> None)
    ~channel ~flows ~bytes () =
  let nshards = Sim.Shard.shards shard in
  if Sim.Shard.lookahead shard > channel.Sim.Channel.delay then
    invalid_arg
      (Printf.sprintf
         "Fabric.create_sharded: shard lookahead %g exceeds link delay %g"
         (Sim.Shard.lookahead shard) channel.Sim.Channel.delay);
  let ins = Option.value ins ~default:(Array.make nshards Sublayer.Instrument.none) in
  if Array.length ins <> nshards then
    invalid_arg
      (Printf.sprintf "Fabric.create_sharded: %d instrument bundles for %d shards"
         (Array.length ins) nshards);
  if Array.exists (fun (i : Sublayer.Instrument.t) -> i.pool <> None) ins then
    invalid_arg "Fabric.create_sharded: a pool is drained by one engine";
  let place h = h * nshards / hosts in
  let links ingress =
    let matrix =
      Array.init hosts (fun src ->
          let s_src = place src in
          let src_engine = Sim.Shard.engine shard s_src in
          Array.init hosts (fun dst ->
              let s_dst = place dst in
              let schedule =
                if s_dst = s_src then None
                else
                  Some
                    (fun ~after fn ->
                      (* Same arithmetic as [Engine.schedule]. *)
                      Sim.Shard.post shard ~src:s_src ~dst:s_dst
                        ~time:(Sim.Engine.now src_engine +. after)
                        fn)
              in
              let ch =
                Sim.Channel.create src_engine channel ~size:Bitkit.Slice.length
                  ~corrupt:Sim.Channel.corrupt_slice
                  ~rng:(Bitkit.Rng.create (seed + 1 + (src * hosts) + dst))
                  ?schedule
                  ~deliver:(fun s -> ingress.(dst) s)
                  ()
              in
              Option.iter
                (fun plan ->
                  Sim.Faultplan.apply src_engine plan
                    [ Sim.Faultplan.target ~name:(Printf.sprintf "link:%d->%d" src dst) ch ])
                (link_faults (src, dst));
              ch))
    in
    fun ~src ~dst -> matrix.(src).(dst)
  in
  build ~who:"Fabric.create_sharded"
    ~engines:(Array.init nshards (Sim.Shard.engine shard))
    ~ins ~place ~links ~hosts ~config ~factory ~seed ~flows ~bytes

let launch_site t f = t.site.(f mod Array.length t.hosts)

let ops t =
  let nh = Array.length t.hosts in
  let launch f =
    let fl = t.flows.(f) in
    let c =
      Host.connect t.hosts.(f mod nh) ~local_port:(client_port f)
        ~remote_port:(server_port f) ()
    in
    fl.f_client <- Some c;
    Host.write c fl.f_data;
    Host.close c
  in
  let flow_finished f =
    let fl = t.flows.(f) in
    match (fl.f_client, fl.f_server) with
    | Some c, Some s ->
        Host.received_length s = String.length fl.f_data && Host.finished c
    | _ -> false
  in
  let flow_exact f =
    let fl = t.flows.(f) in
    match fl.f_server with
    | Some s -> Host.received_equal s fl.f_data
    | None -> false
  in
  { Sim.Workload.launch; flow_finished; flow_exact }
