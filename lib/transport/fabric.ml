(* N-host port-switched fabric: the transport side of the E21 scale
   workload. Every host gets one ingress channel (its "NIC"); a shared
   transmit closure peeks the destination port of each wire segment and
   forwards it to the owning host's channel — a learning switch whose
   forwarding table is filled in at flow-setup time. Ports are allocated
   globally (flow [f] serves on [1024 + 2f], connects from [1025 + 2f]),
   so 5k flows stay well clear of the hosts' 49152+ ephemeral range. *)

type flow = {
  f_data : string;
  mutable f_client : Host.conn option;
  mutable f_server : Host.conn option;
}

type t = {
  hosts : Host.t array;
  flows : flow array;
  host_shard : int array; (* host -> owning shard; all zero when unsharded *)
  pools : Bitkit.Pool.t array; (* one per shard; empty when unpooled *)
}

let server_port f = 1024 + (2 * f)
let client_port f = 1025 + (2 * f)

(* DM ports are 16-bit: past this many flows the last flows' ports would
   be truncated on the wire and those flows could never finish. *)
let max_flows = ((0xFFFF - client_port 0) / 2) + 1

let check_flows who flows =
  if flows < 0 then invalid_arg (who ^ ": negative flow count");
  if flows > max_flows then
    invalid_arg
      (Printf.sprintf
         "%s: %d flows exceed the 16-bit port space (flow f serves on port 1024 + 2f, \
          so at most %d flows)"
         who flows max_flows)

(* The fabric owns its (shared) observability instances, so it also
   registers the sampling sources: the stats registry (once, not per
   host), the engine's own gauges, the process-global zero-copy counter
   and the trace-ring drop counter (per-shard-sized, so nondet), plus
   the GC source. *)
let telemetry_sources ?stats ?tracer ~slice_global tele engine =
  (match stats with
  | Some reg -> Sublayer.Stats.telemetry_source tele ~name:"fabric" reg
  | None -> ());
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
  (match tracer with
  | Some tr ->
      Sim.Telemetry.add_counters tele ~det:false ~name:"tracer" (fun () ->
          [ ("dropped", Sim.Tracer.dropped tr) ])
  | None -> ());
  Sim.Telemetry.add_gc tele

let create engine ?(hosts = 8) ?(config = Config.default)
    ?(factory = Host.sublayered) ?stats ?tracer ?monitors ?telemetry ?pool
    ?(seed = 7) ?link_faults ~channel ~flows ~bytes () =
  if hosts < 1 then invalid_arg "Fabric.create: need at least one host";
  check_flows "Fabric.create" flows;
  if bytes < 0 then invalid_arg "Fabric.create: negative flow size";
  (* Register sources only once the arguments are validated, so a raise
     never leaves the caller's telemetry polluted by a fabric that was
     never built. *)
  (match telemetry with
  | Some tele -> telemetry_sources ?stats ?tracer ~slice_global:true tele engine
  | None -> ());
  (* Machine-held loans (DM emits, OSR stages, detector trailers) are
     deferred; they fall due once the event that produced them has fully
     applied. *)
  Option.iter
    (fun p ->
      Sim.Engine.after_event engine (fun () -> Bitkit.Pool.drain_deferred p))
    pool;
  let port_host = Hashtbl.create (2 * flows) in
  let ingress = Array.make hosts (fun (_ : Bitkit.Slice.t) -> ()) in
  let mk_chan dst =
    Sim.Channel.create engine channel ~size:Bitkit.Slice.length
      ~corrupt:Sim.Channel.corrupt_slice
      ~deliver:(fun s -> ingress.(dst) s)
      ()
  in
  let chan =
    match link_faults with
    | None ->
        (* One shared ingress channel per host (its "NIC"). *)
        let per_host = Array.init hosts mk_chan in
        fun ~src:_ ~dst -> per_host.(dst)
    | Some faults ->
        (* A channel per directed host pair, so a fault plan can impair
           individual links — a partial partition leaves the rest of the
           fabric untouched. *)
        let matrix =
          Array.init hosts (fun src ->
              Array.init hosts (fun dst ->
                  let ch = mk_chan dst in
                  (match faults (src, dst) with
                  | Some plan ->
                      Sim.Faultplan.apply engine plan
                        [ Sim.Faultplan.target
                            ~name:(Printf.sprintf "link:%d->%d" src dst)
                            ch ]
                  | None -> ());
                  ch))
        in
        fun ~src ~dst -> matrix.(src).(dst)
  in
  let transmit s =
    match factory.Host.peek s with
    | None -> ()
    | Some (src_port, dst_port) -> (
        match Hashtbl.find_opt port_host dst_port with
        | None -> ()
        | Some dst ->
            (* Every fabric port is registered at setup, so the source
               lookup only falls back when a foreign factory is probing. *)
            let src =
              Option.value ~default:dst (Hashtbl.find_opt port_host src_port)
            in
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
  let ins =
    Sublayer.Instrument.v ?stats ?tracer ?monitors ?telemetry ?pool ()
  in
  let harr =
    Array.init hosts (fun h ->
        let link =
          Sublayer.Link.make
            ~id:(Printf.sprintf "H%d" h)
            ~transmit ()
        in
        Host.create engine ~config ~factory ~ins
          ~name:(Printf.sprintf "H%d" h)
          ~link ())
  in
  Array.iteri
    (fun h host -> ingress.(h) <- Sublayer.Link.deliver (Host.wire_link host))
    harr;
  (* Per-flow payloads come from one seeded stream, so runs are exactly
     reproducible and the exact-delivery check is content-sensitive. *)
  let rng = Bitkit.Rng.create seed in
  let farr =
    Array.init flows (fun _ ->
        { f_data = String.init bytes (fun _ -> Char.chr (Bitkit.Rng.int rng 256));
          f_client = None; f_server = None })
  in
  let by_server_port = Hashtbl.create (max 1 flows) in
  for f = 0 to flows - 1 do
    let sh = (f + 1) mod hosts and ch = f mod hosts in
    Hashtbl.replace port_host (server_port f) sh;
    Hashtbl.replace port_host (client_port f) ch;
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
  { hosts = harr; flows = farr; host_shard = Array.make hosts 0;
    pools = (match pool with None -> [||] | Some p -> [| p |]) }

(* --- sharded construction --------------------------------------------- *)

(* The sharded fabric differs from [create] in exactly the ways domain
   partitioning demands, and in no other:

   - Hosts are placed on shards by contiguous blocks
     ([h * shards / hosts]), so with flow [f] running from host [f mod
     hosts] to [(f+1) mod hosts], only the block-boundary host pairs
     cross shards.
   - Channels always form the per-directed-pair matrix (a shared ingress
     channel would be mutated by every source shard at once), each built
     on the {e source} host's engine — sends draw coins and read the
     fault-mutable config on the source domain — and each with a private
     RNG stream seeded by (seed, src, dst). Per-link streams are what
     make the draw sequence independent of global event interleave, so
     the [shards = 1] instance of this same construction is the
     bit-identity baseline for every other shard count.
   - Cross-shard channels schedule deliveries through {!Sim.Shard.post}:
     the message timestamp is [now + latency] with [latency >= delay >=
     lookahead], the conduits' conservative promise (validated here; and
     fault plans never touch [delay]).
   - Fault plans for a link run on the source shard's engine, mutating
     config the source domain reads.
   - Stats registries, tracers and monitor registries are per shard
     (single-domain mutable state); host [h] records into its shard's
     instance. Merge after the run with [Monitor.Runtime.merged_verdicts]
     / [Tracer.merged_chrome_json]. *)
let create_sharded shard ?(hosts = 8) ?(config = Config.default)
    ?(factory = Host.sublayered) ?stats ?tracer ?monitors ?telemetry ?pools
    ?(seed = 7) ?link_faults ~channel ~flows ~bytes () =
  let nshards = Sim.Shard.shards shard in
  if hosts < nshards then
    invalid_arg "Fabric.create_sharded: need at least one host per shard";
  check_flows "Fabric.create_sharded" flows;
  if bytes < 0 then invalid_arg "Fabric.create_sharded: negative flow size";
  if Sim.Shard.lookahead shard > channel.Sim.Channel.delay then
    invalid_arg
      (Printf.sprintf
         "Fabric.create_sharded: shard lookahead %g exceeds link delay %g"
         (Sim.Shard.lookahead shard) channel.Sim.Channel.delay);
  let per_shard label = function
    | None -> Array.make nshards None
    | Some arr ->
        if Array.length arr <> nshards then
          invalid_arg
            (Printf.sprintf
               "Fabric.create_sharded: %s array length %d <> %d shards" label
               (Array.length arr) nshards);
        Array.map Option.some arr
  in
  let stats = per_shard "stats" stats in
  let tracer = per_shard "tracer" tracer in
  let monitors = per_shard "monitors" monitors in
  let telemetry = per_shard "telemetry" telemetry in
  (* A pool is single-domain state: one per shard, drained on that
     shard's engine, and never loaned across a conduit (the transmit
     closure copies out of the slot for cross-shard sends). *)
  let pools = per_shard "pools" pools in
  Array.iteri
    (fun s p ->
      Option.iter
        (fun p ->
          Sim.Engine.after_event
            (Sim.Shard.engine shard s)
            (fun () -> Bitkit.Pool.drain_deferred p))
        p)
    pools;
  (* Per-shard instances register the SAME source names as the serial
     fabric, so summing the deterministic series across shards
     ([Telemetry.merged_deterministic]) reproduces the single-engine
     series key for key. *)
  Array.iteri
    (fun s tele ->
      match tele with
      | Some tele ->
          telemetry_sources ?stats:stats.(s) ?tracer:tracer.(s)
            ~slice_global:(s = 0) tele
            (Sim.Shard.engine shard s)
      | None -> ())
    telemetry;
  let host_shard = Array.init hosts (fun h -> h * nshards / hosts) in
  let port_host = Hashtbl.create (2 * flows) in
  let ingress = Array.make hosts (fun (_ : Bitkit.Slice.t) -> ()) in
  let matrix =
    Array.init hosts (fun src ->
        let s_src = host_shard.(src) in
        let src_engine = Sim.Shard.engine shard s_src in
        Array.init hosts (fun dst ->
            let schedule =
              let s_dst = host_shard.(dst) in
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
            (match link_faults with
            | None -> ()
            | Some faults -> (
                match faults (src, dst) with
                | Some plan ->
                    Sim.Faultplan.apply src_engine plan
                      [ Sim.Faultplan.target
                          ~name:(Printf.sprintf "link:%d->%d" src dst)
                          ch ]
                | None -> ()));
            ch))
  in
  let transmit s =
    match factory.Host.peek s with
    | None -> ()
    | Some (src_port, dst_port) -> (
        match Hashtbl.find_opt port_host dst_port with
        | None -> ()
        | Some dst ->
            let src =
              Option.value ~default:dst (Hashtbl.find_opt port_host src_port)
            in
            let ch = matrix.(src).(dst) in
            let s_src = host_shard.(src) in
            let handled =
              match pools.(s_src) with
              | None -> false
              | Some p -> (
                  match Bitkit.Pool.slot_of_slice p s with
                  | None -> false
                  | Some slot ->
                      if host_shard.(dst) = s_src then begin
                        Bitkit.Pool.retain p slot;
                        Sim.Channel.send ~loan:(p, slot) ch s;
                        true
                      end
                      else begin
                        (* The slot dies with the source shard's event;
                           the conduit delivers on another domain, so the
                           bytes must leave the arena here. *)
                        Sim.Channel.send ch
                          (Bitkit.Slice.of_string (Bitkit.Slice.to_string s));
                        true
                      end)
            in
            if not handled then Sim.Channel.send ch s)
  in
  let harr =
    Array.init hosts (fun h ->
        let s = host_shard.(h) in
        let ins =
          Sublayer.Instrument.v ?stats:stats.(s) ?tracer:tracer.(s)
            ?monitors:monitors.(s) ?telemetry:telemetry.(s) ?pool:pools.(s) ()
        in
        let link =
          Sublayer.Link.make
            ~id:(Printf.sprintf "H%d" h)
            ~transmit ()
        in
        Host.create
          (Sim.Shard.engine shard s)
          ~config ~factory ~ins
          ~name:(Printf.sprintf "H%d" h)
          ~link ())
  in
  Array.iteri
    (fun h host -> ingress.(h) <- Sublayer.Link.deliver (Host.wire_link host))
    harr;
  (* Payloads drawn at construction time on the main domain, from the
     same stream as [create] — identical contents at every shard count. *)
  let rng = Bitkit.Rng.create seed in
  let farr =
    Array.init flows (fun _ ->
        { f_data = String.init bytes (fun _ -> Char.chr (Bitkit.Rng.int rng 256));
          f_client = None; f_server = None })
  in
  let by_server_port = Hashtbl.create (max 1 flows) in
  for f = 0 to flows - 1 do
    let sh = (f + 1) mod hosts and ch = f mod hosts in
    Hashtbl.replace port_host (server_port f) sh;
    Hashtbl.replace port_host (client_port f) ch;
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
  { hosts = harr; flows = farr; host_shard;
    pools =
      Array.of_list (List.filter_map (fun p -> p) (Array.to_list pools)) }

let hosts t = t.hosts
let host_shard t h = t.host_shard.(h)
let launch_site t f = t.host_shard.(f mod Array.length t.hosts)

let pool_stats t =
  match t.pools with
  | [||] -> []
  | pools ->
      (* Summed across shards; key for key the same list one pool
         reports, so [Workload.run ~drops] callers need no sharding
         special case. *)
      let acc = Hashtbl.create 8 in
      let order = ref [] in
      Array.iter
        (fun p ->
          List.iter
            (fun (k, v) ->
              match Hashtbl.find_opt acc k with
              | None ->
                  order := k :: !order;
                  Hashtbl.replace acc k v
              | Some v0 -> Hashtbl.replace acc k (v0 + v))
            (Bitkit.Pool.stats p))
        pools;
      List.rev_map (fun k -> (k, Hashtbl.find acc k)) !order

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
    | Some s -> Host.received s = fl.f_data
    | None -> false
  in
  { Sim.Workload.launch; flow_finished; flow_exact }
