(* The whole reproduction in one scenario: a sublayered TCP connection
   (Figure 5) riding a routed network built from the Figure 4 sublayers,
   with a link failure in the middle of the transfer. The control plane
   reroutes; RD retransmits what the failure ate; the byte stream arrives
   exactly.

     dune exec examples/full_stack.exe
     dune exec examples/full_stack.exe -- ls     (link-state routing)
*)

let () =
  let routing =
    match Array.to_list Sys.argv with
    | _ :: "ls" :: _ -> Network.Link_state.factory
    | _ -> Network.Distance_vector.factory
  in
  let engine = Sim.Engine.create ~seed:8 () in
  let n = 8 in
  let edges = Network.Topology.ring 8 in
  let net = Network.Topology.build engine ~routing ~n edges in
  let module P = (val routing : Network.Routing.S) in
  (match Network.Topology.converge net with
  | Some t -> Printf.printf "network converged (%s) at t=%.1fs\n" P.name t
  | None -> failwith "no convergence");

  (* Attach transport hosts at nodes 0 and 4: TCP segments become packet
     payloads; the routers forward them hop by hop. *)
  let client_node = 0 and server_node = 4 in
  let client_host = ref None and server_host = ref None in
  let transmit_from node dst wire =
    Network.Router.originate (Network.Topology.router net node)
      ~dst:(Network.Addr.node dst) wire
  in
  let ch = Transport.Host.create engine ~name:"client"
      ~link:(Sublayer.Link.make
               ~transmit:(fun w -> transmit_from client_node server_node w) ()) () in
  let sh = Transport.Host.create engine ~name:"server"
      ~link:(Sublayer.Link.make
               ~transmit:(fun w -> transmit_from server_node client_node w) ()) () in
  client_host := Some ch;
  server_host := Some sh;
  (* Drain packets delivered at each node into the hosts. *)
  let pump () =
    List.iter
      (fun p -> Transport.Host.from_wire ch p.Network.Packet.payload)
      (Network.Topology.received net client_node);
    List.iter
      (fun p -> Transport.Host.from_wire sh p.Network.Packet.payload)
      (Network.Topology.received net server_node);
    Network.Topology.clear_received net
  in
  (* Poll the node inboxes every millisecond of virtual time. *)
  let rec pump_loop () =
    pump ();
    ignore (Sim.Engine.schedule engine ~after:0.001 pump_loop)
  in
  pump_loop ();

  Transport.Host.listen sh ~port:80;
  let server_conn = ref None in
  Transport.Host.on_accept sh (fun c -> server_conn := Some c);
  let conn = Transport.Host.connect ch ~remote_port:80 () in
  let rng = Bitkit.Rng.create 5 in
  let data = String.init 200_000 (fun _ -> Char.chr (Bitkit.Rng.int rng 256)) in
  Transport.Host.write conn data;
  Transport.Host.close conn;

  (* Let the transfer get going, then cut the link it is using. *)
  Sim.Engine.run ~until:(Sim.Engine.now engine +. 0.05) engine;
  (match Network.Topology.fib_path net ~src:client_node ~dst:server_node with
  | Some (a :: b :: _ as path) ->
      Printf.printf "transfer running along %s\n"
        (String.concat " -> " (List.map string_of_int path));
      Printf.printf "FAILING link %d-%d mid-transfer...\n" a b;
      Network.Topology.fail_link net a b
  | _ -> ());
  (match Network.Topology.converge net with
  | Some t -> Printf.printf "rerouted at t=%.1fs\n" t
  | None -> Printf.printf "no reconvergence\n");
  (match Network.Topology.fib_path net ~src:client_node ~dst:server_node with
  | Some path ->
      Printf.printf "new path: %s\n" (String.concat " -> " (List.map string_of_int path))
  | None -> ());

  let rec drive () =
    if Sim.Engine.now engine < 120. && not (Transport.Host.finished conn) then begin
      Sim.Engine.run ~until:(Sim.Engine.now engine +. 0.5) engine;
      drive ()
    end
  in
  drive ();
  Sim.Engine.run ~until:(Sim.Engine.now engine +. 5.) engine;
  match !server_conn with
  | Some srv when Transport.Host.received srv = data ->
      Printf.printf
        "SUCCESS: 200 KB delivered exactly across the failure at t=%.2fs virtual\n"
        (Sim.Engine.now engine)
  | Some srv ->
      Printf.printf "MISMATCH: server got %d bytes\n" (Transport.Host.received_length srv)
  | None -> Printf.printf "NO CONNECTION\n"
