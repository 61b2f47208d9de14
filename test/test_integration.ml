(* Cross-library integration: the sublayered TCP over the routed network
   (with mid-transfer failures), and the full three-layer composition —
   transport over the reliable data-link stack over a corrupting bit
   channel. *)

let check = Alcotest.check

let random_data seed n =
  let rng = Bitkit.Rng.create seed in
  String.init n (fun _ -> Char.chr (Bitkit.Rng.int rng 256))

(* --- TCP over the routed network --- *)

let tcp_over_network ~routing ~fail_mid_transfer ~seed =
  let engine = Sim.Engine.create ~seed () in
  let n = 8 in
  let net = Network.Topology.build engine ~routing ~n (Network.Topology.ring 8) in
  (match Network.Topology.converge net with
  | Some _ -> ()
  | None -> Alcotest.fail "network did not converge");
  let client_node = 0 and server_node = 4 in
  let transmit_from node dst wire =
    Network.Router.originate (Network.Topology.router net node)
      ~dst:(Network.Addr.node dst) wire
  in
  let ch =
    Transport.Host.create engine ~name:"client"
      ~link:(Sublayer.Link.make
               ~transmit:(fun w -> transmit_from client_node server_node w) ())
      ()
  in
  let sh =
    Transport.Host.create engine ~name:"server"
      ~link:(Sublayer.Link.make
               ~transmit:(fun w -> transmit_from server_node client_node w) ())
      ()
  in
  let pump () =
    List.iter
      (fun p -> Transport.Host.from_wire ch p.Network.Packet.payload)
      (Network.Topology.received net client_node);
    List.iter
      (fun p -> Transport.Host.from_wire sh p.Network.Packet.payload)
      (Network.Topology.received net server_node);
    Network.Topology.clear_received net
  in
  let rec pump_loop () =
    pump ();
    ignore (Sim.Engine.schedule engine ~after:0.001 pump_loop)
  in
  pump_loop ();
  Transport.Host.listen sh ~port:80;
  let server_conn = ref None in
  Transport.Host.on_accept sh (fun c -> server_conn := Some c);
  let conn = Transport.Host.connect ch ~remote_port:80 () in
  let data = random_data seed 100_000 in
  Transport.Host.write conn data;
  Transport.Host.close conn;
  if fail_mid_transfer then begin
    Sim.Engine.run ~until:(Sim.Engine.now engine +. 0.05) engine;
    match Network.Topology.fib_path net ~src:client_node ~dst:server_node with
    | Some (a :: b :: _) -> Network.Topology.fail_link net a b
    | _ -> Alcotest.fail "no initial path"
  end;
  let rec drive () =
    if Sim.Engine.now engine < 120. && not (Transport.Host.finished conn) then begin
      Sim.Engine.run ~until:(Sim.Engine.now engine +. 0.5) engine;
      drive ()
    end
  in
  drive ();
  Sim.Engine.run ~until:(Sim.Engine.now engine +. 5.) engine;
  Network.Topology.stop net;
  match !server_conn with
  | Some srv -> Transport.Host.received srv = data
  | None -> false

let test_tcp_over_network_dv () =
  check Alcotest.bool "delivered" true
    (tcp_over_network ~routing:(Network.Distance_vector.factory)
       ~fail_mid_transfer:false ~seed:41)

let test_tcp_over_network_ls () =
  check Alcotest.bool "delivered" true
    (tcp_over_network ~routing:(Network.Link_state.factory) ~fail_mid_transfer:false
       ~seed:42)

let test_tcp_survives_rerouting_dv () =
  check Alcotest.bool "delivered across failure" true
    (tcp_over_network ~routing:(Network.Distance_vector.factory)
       ~fail_mid_transfer:true ~seed:43)

let test_tcp_survives_rerouting_ls () =
  check Alcotest.bool "delivered across failure" true
    (tcp_over_network ~routing:(Network.Link_state.factory) ~fail_mid_transfer:true
       ~seed:44)

(* --- Transport over the data-link stack over a corrupting bit channel --- *)

let test_transport_over_datalink () =
  (* Corruption is repaired below the transport: the data-link CRC drops
     damaged frames, its ARQ retransmits them, and TCP above never sees a
     bad byte — strict layering end to end. *)
  let engine = Sim.Engine.create ~seed:45 () in
  let channel = { Sim.Channel.ideal with corruption = 0.08 } in
  let link = Datalink.Stack.link engine channel Datalink.Stack.default_spec in
  let client = ref None and server = ref None in
  let ch =
    Transport.Host.create engine ~name:"client"
      ~link:(Sublayer.Link.make
               ~transmit:(fun w ->
                 Datalink.Stack.send link.Datalink.Stack.a (Bitkit.Slice.to_string w))
               ())
      ()
  in
  let sh =
    Transport.Host.create engine ~name:"server"
      ~link:(Sublayer.Link.make
               ~transmit:(fun w ->
                 Datalink.Stack.send link.Datalink.Stack.b (Bitkit.Slice.to_string w))
               ())
      ()
  in
  client := Some ch;
  server := Some sh;
  (* The data-link queues deliver transport segments in order. *)
  let rec pump_loop () =
    Queue.iter
      (fun w -> Transport.Host.from_wire ch (Bitkit.Slice.of_string w))
      link.Datalink.Stack.received_at_a;
    Queue.clear link.Datalink.Stack.received_at_a;
    Queue.iter
      (fun w -> Transport.Host.from_wire sh (Bitkit.Slice.of_string w))
      link.Datalink.Stack.received_at_b;
    Queue.clear link.Datalink.Stack.received_at_b;
    ignore (Sim.Engine.schedule engine ~after:0.001 pump_loop)
  in
  pump_loop ();
  Transport.Host.listen sh ~port:80;
  let server_conn = ref None in
  Transport.Host.on_accept sh (fun c -> server_conn := Some c);
  let conn = Transport.Host.connect ch ~remote_port:80 () in
  let data = random_data 46 60_000 in
  Transport.Host.write conn data;
  Transport.Host.close conn;
  let rec drive () =
    if Sim.Engine.now engine < 120. && not (Transport.Host.finished conn) then begin
      Sim.Engine.run ~until:(Sim.Engine.now engine +. 0.5) engine;
      drive ()
    end
  in
  drive ();
  Sim.Engine.run ~until:(Sim.Engine.now engine +. 5.) engine;
  (match server_conn.contents with
  | Some srv ->
      check Alcotest.bool "exact bytes through corruption" true
        (Transport.Host.received srv = data)
  | None -> Alcotest.fail "no connection");
  (* The link layer actually did repair work. *)
  check Alcotest.bool "link-layer retransmissions happened" true
    ((Datalink.Stack.arq_stats link.Datalink.Stack.a).Datalink.Arq.retransmissions > 0)

(* --- Chaos: randomized multi-connection schedules --- *)

let qtest ?(count = 15) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

type chaos_conn = { start : float; chunks : int list }

let chaos_gen =
  QCheck2.Gen.(
    let conn =
      map2
        (fun start chunks -> { start = Float.of_int start /. 100.; chunks })
        (0 -- 100)
        (list_size (1 -- 6) (1 -- 3000))
    in
    triple (list_size (1 -- 5) conn) (0 -- 12) (0 -- 42))

let prop_chaos_every_stream_exact =
  qtest "random schedules deliver every stream exactly" chaos_gen
    (fun (conns, loss_pct, seed) ->
      let engine = Sim.Engine.create ~seed () in
      let channel =
        { (Sim.Channel.lossy (Float.of_int loss_pct /. 100.)) with
          duplication = 0.01; reorder = 0.02; reorder_extra = 0.004 }
      in
      let a, b = Transport.Host.pair engine channel in
      Transport.Host.listen b ~port:80;
      let server_conns = ref [] in
      Transport.Host.on_accept b (fun c -> server_conns := c :: !server_conns);
      let rng = Bitkit.Rng.create (seed + 1) in
      let client_conns =
        List.map
          (fun spec ->
            let c = Transport.Host.connect a ~remote_port:80 () in
            let expected = Buffer.create 1024 in
            let closing = ref false in
            let t = ref spec.start in
            List.iter
              (fun size ->
                let chunk =
                  String.init size (fun _ -> Char.chr (Bitkit.Rng.int rng 256))
                in
                Buffer.add_string expected chunk;
                ignore
                  (Sim.Engine.at engine ~time:!t (fun () ->
                       Transport.Host.write c chunk));
                t := !t +. Float.of_int (Bitkit.Rng.int rng 20) /. 1000.)
              spec.chunks;
            ignore
              (Sim.Engine.at engine ~time:!t (fun () ->
                   Transport.Host.close c;
                   closing := true));
            (c, expected, closing))
          conns
      in
      (* A client whose first write is still scheduled has nothing unacked
         and so counts as finished; only one that has issued its close is
         really done. *)
      let rec drive n =
        if
          n < 600
          && not
               (List.for_all
                  (fun (c, _, closing) -> !closing && Transport.Host.finished c)
                  client_conns)
        then begin
          Sim.Engine.run ~until:(Sim.Engine.now engine +. 0.5) engine;
          drive (n + 1)
        end
      in
      drive 0;
      Sim.Engine.run ~until:(Sim.Engine.now engine +. 10.) engine;
      (* every client connection's bytes arrived exactly at its peer *)
      List.length !server_conns = List.length client_conns
      && List.for_all
           (fun (c, expected, _) ->
             let key = (Transport.Host.remote_port c, Transport.Host.local_port c) in
             match
               List.find_opt
                 (fun srv ->
                   (Transport.Host.local_port srv, Transport.Host.remote_port srv) = key)
                 !server_conns
             with
             | Some srv -> Transport.Host.received srv = Buffer.contents expected
             | None -> false)
           client_conns)

let () =
  Alcotest.run "integration"
    [
      ( "tcp-over-network",
        [
          Alcotest.test_case "dv routing" `Slow test_tcp_over_network_dv;
          Alcotest.test_case "ls routing" `Slow test_tcp_over_network_ls;
          Alcotest.test_case "reroute mid-transfer (dv)" `Slow test_tcp_survives_rerouting_dv;
          Alcotest.test_case "reroute mid-transfer (ls)" `Slow test_tcp_survives_rerouting_ls;
        ] );
      ( "three-layers",
        [ Alcotest.test_case "transport over datalink" `Slow test_transport_over_datalink ]
      );
      ("chaos", [ prop_chaos_every_stream_exact ]);
    ]
