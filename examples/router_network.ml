(* A 12-router network built from the three network sublayers of
   Figure 4 (hello / route computation / forwarding), with a link
   failure mid-run. Swap [routing] between distance-vector and
   link-state to see that nothing else changes.

     dune exec examples/router_network.exe
     dune exec examples/router_network.exe -- ls
*)

let () =
  let routing =
    match Array.to_list Sys.argv with
    | _ :: "ls" :: _ -> Network.Link_state.factory
    | _ -> Network.Distance_vector.factory
  in
  let module P = (val routing : Network.Routing.S) in
  Printf.printf "routing protocol: %s\n" P.name;

  let engine = Sim.Engine.create ~seed:11 () in
  let n = 12 in
  let edges = Network.Topology.random ~n ~extra:6 ~seed:4 in
  Printf.printf "topology: %d nodes, edges:" n;
  List.iter (fun (a, b) -> Printf.printf " %d-%d" a b) edges;
  print_newline ();

  let net = Network.Topology.build engine ~routing ~n edges in
  (match Network.Topology.converge net with
  | Some t -> Printf.printf "converged at t=%.1fs\n" t
  | None -> failwith "did not converge");

  let show_path src dst =
    match Network.Topology.fib_path net ~src ~dst with
    | Some path ->
        Printf.printf "  path %d -> %d: %s\n" src dst
          (String.concat " -> " (List.map string_of_int path))
    | None -> Printf.printf "  path %d -> %d: unreachable\n" src dst
  in
  show_path 0 (n - 1);

  (* Send a packet along it. *)
  Network.Topology.send net ~src:0 ~dst:(n - 1) "hello across the network";
  Sim.Engine.run ~until:(Sim.Engine.now engine +. 2.) engine;
  List.iter
    (fun p -> Printf.printf "  node %d delivered: %S (ttl %d left)\n" (n - 1)
        (Bitkit.Slice.to_string p.Network.Packet.payload) p.Network.Packet.ttl)
    (Network.Topology.received net (n - 1));

  (* Break the first link on that path and watch the control plane heal. *)
  (match Network.Topology.fib_path net ~src:0 ~dst:(n - 1) with
  | Some (a :: b :: _) ->
      Printf.printf "failing link %d-%d ...\n" a b;
      Network.Topology.fail_link net a b;
      (match Network.Topology.converge net with
      | Some t -> Printf.printf "reconverged at t=%.1fs\n" t
      | None -> Printf.printf "no reconvergence!\n");
      show_path 0 (n - 1)
  | _ -> ());

  Network.Topology.clear_received net;
  Network.Topology.send net ~src:0 ~dst:(n - 1) "hello again, the long way";
  Sim.Engine.run ~until:(Sim.Engine.now engine +. 2.) engine;
  List.iter
    (fun p ->
      Printf.printf "  node %d delivered: %S\n" (n - 1)
        (Bitkit.Slice.to_string p.Network.Packet.payload))
    (Network.Topology.received net (n - 1));
  Network.Topology.stop net
