(* Tests for the network sublayers: addresses, the LPM trie, hello,
   distance-vector and link-state route computation (swappable, E2),
   forwarding, and failure/heal reconvergence. *)

open Network

let check = Alcotest.check
let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- Addr --- *)

let test_addr_parse () =
  check Alcotest.int "10.0.0.1" 0x0A000001 (Addr.of_string "10.0.0.1");
  check Alcotest.string "roundtrip" "192.168.1.254" (Addr.to_string (Addr.of_string "192.168.1.254"));
  Alcotest.check_raises "octet range" (Invalid_argument "Addr.of_string: octet out of range")
    (fun () -> ignore (Addr.of_string "1.2.3.256"));
  Alcotest.check_raises "shape" (Invalid_argument "Addr.of_string: expected a.b.c.d")
    (fun () -> ignore (Addr.of_string "1.2.3"))

let test_addr_prefix () =
  let p = Addr.prefix_of_string "10.1.2.3/16" in
  check Alcotest.string "normalised" "10.1.0.0/16" (Format.asprintf "%a" Addr.pp_prefix p);
  check Alcotest.bool "matches inside" true (Addr.matches p (Addr.of_string "10.1.200.7"));
  check Alcotest.bool "rejects outside" false (Addr.matches p (Addr.of_string "10.2.0.1"));
  check Alcotest.bool "len 0 matches all" true
    (Addr.matches (Addr.prefix 0 0) (Addr.of_string "255.255.255.255"))

let prop_addr_roundtrip =
  qtest "string roundtrip" QCheck2.Gen.(0 -- 0xFFFFFF) (fun a ->
      Addr.of_string (Addr.to_string a) = a)

(* --- Fib (LPM trie) --- *)

let test_fib_lpm () =
  let fib = Fib.create () in
  Fib.insert fib (Addr.prefix_of_string "10.0.0.0/8") 1;
  Fib.insert fib (Addr.prefix_of_string "10.1.0.0/16") 2;
  Fib.insert fib (Addr.prefix_of_string "10.1.2.0/24") 3;
  check Alcotest.(option int) "/8 wins" (Some 1) (Fib.lookup fib (Addr.of_string "10.9.9.9"));
  check Alcotest.(option int) "/16 wins" (Some 2) (Fib.lookup fib (Addr.of_string "10.1.9.9"));
  check Alcotest.(option int) "/24 wins" (Some 3) (Fib.lookup fib (Addr.of_string "10.1.2.9"));
  check Alcotest.(option int) "miss" None (Fib.lookup fib (Addr.of_string "11.0.0.1"));
  check Alcotest.int "size" 3 (Fib.size fib)

let test_fib_default_route () =
  let fib = Fib.create () in
  Fib.insert fib (Addr.prefix 0 0) 9;
  check Alcotest.(option int) "default" (Some 9) (Fib.lookup fib (Addr.of_string "1.2.3.4"))

let test_fib_replace_remove () =
  let fib = Fib.create () in
  let p = Addr.prefix_of_string "10.0.0.0/8" in
  Fib.insert fib p 1;
  Fib.insert fib p 2;
  check Alcotest.(option int) "replaced" (Some 2) (Fib.lookup fib (Addr.of_string "10.0.0.1"));
  check Alcotest.int "size stays 1" 1 (Fib.size fib);
  Fib.remove fib p;
  check Alcotest.(option int) "removed" None (Fib.lookup fib (Addr.of_string "10.0.0.1"));
  Fib.remove fib p;
  check Alcotest.int "idempotent remove" 0 (Fib.size fib)

let test_fib_host_routes () =
  let fib = Fib.create () in
  for i = 0 to 63 do
    Fib.insert fib (Addr.host (Addr.node i)) i
  done;
  let ok = ref true in
  for i = 0 to 63 do
    if Fib.lookup fib (Addr.node i) <> Some i then ok := false
  done;
  check Alcotest.bool "all hosts resolve" true !ok;
  check Alcotest.int "entries" 64 (List.length (Fib.entries fib))

let prop_fib_lpm_reference =
  (* Compare trie lookups against a naive longest-prefix scan. *)
  let prefix_gen =
    QCheck2.Gen.(map2 (fun a len -> Addr.prefix a len) (0 -- 0xFFFFFF) (0 -- 32))
  in
  qtest "trie = naive scan" QCheck2.Gen.(pair (list_size (0 -- 30) prefix_gen) (0 -- 0xFFFFFF))
    (fun (prefixes, addr) ->
      let fib = Fib.create () in
      List.iteri (fun i p -> Fib.insert fib p i) prefixes;
      let naive =
        (* Last insert wins for equal prefixes, as in the trie. *)
        List.fold_left
          (fun best (i, p) ->
            if Addr.matches p addr then
              match best with
              | Some (_, bl) when bl > p.Addr.len -> best
              | _ -> Some (i, p.Addr.len)
            else best)
          None
          (List.mapi (fun i p -> (i, p)) prefixes)
      in
      Fib.lookup fib addr = Option.map fst naive)

(* --- Packet --- *)

let test_packet_ttl () =
  let p = Packet.make ~src:(Addr.node 1) ~dst:(Addr.node 2) (Bitkit.Slice.of_string "x") in
  check Alcotest.int "default ttl" 64 p.Packet.ttl;
  check Alcotest.int "size" 13 (Packet.size p);
  (match Packet.decrement_ttl p with
  | Some p' -> check Alcotest.int "decremented" 63 p'.Packet.ttl
  | None -> Alcotest.fail "ttl died early");
  let dying = Packet.make ~ttl:1 ~src:(Addr.node 1) ~dst:(Addr.node 2) (Bitkit.Slice.of_string "x") in
  check Alcotest.bool "expires at 1" true (Packet.decrement_ttl dying = None)

let test_packet_nonce () =
  let p = Packet.make ~src:(Addr.node 1) ~dst:(Addr.node 2) (Bitkit.Slice.of_string "x") in
  let q = Packet.make ~src:(Addr.node 1) ~dst:(Addr.node 2) (Bitkit.Slice.of_string "x") in
  check Alcotest.bool "identical twins get distinct nonces" true
    (p.Packet.nonce <> q.Packet.nonce);
  (match Packet.decrement_ttl p with
  | Some p' -> check Alcotest.int "nonce survives forwarding" p.Packet.nonce p'.Packet.nonce
  | None -> Alcotest.fail "ttl died early");
  let forged = Packet.make ~nonce:41 ~src:(Addr.node 1) ~dst:(Addr.node 2) (Bitkit.Slice.of_string "x") in
  check Alcotest.int "explicit nonce kept" 41 forged.Packet.nonce

(* Two identical payloads in flight between the same pair used to share
   one src/dst/payload correlation key, so the first packet's "transit"
   span was overwritten and left open forever. Nonce-keyed correlation
   must close one span per packet. *)
let test_transit_spans_of_identical_payloads () =
  let engine = Sim.Engine.create ~seed:4 () in
  let tracer = Sim.Tracer.create () in
  let net =
    Topology.build engine ~ins:(Sublayer.Instrument.v ~tracer ()) ~routing:(Distance_vector.factory ()) ~n:3
      (Topology.line 3)
  in
  (match Topology.converge net with
  | Some _ -> ()
  | None -> Alcotest.fail "did not converge");
  Topology.send net ~src:0 ~dst:2 "dup";
  Topology.send net ~src:0 ~dst:2 "dup";
  Sim.Engine.run ~until:(Sim.Engine.now engine +. 5.) engine;
  check Alcotest.int "both packets delivered" 2
    (List.length (Topology.received net 2));
  let transit =
    List.filter
      (fun s -> s.Sim.Tracer.sp_name = "transit")
      (Sim.Tracer.spans tracer)
  in
  check Alcotest.int "one closed transit span per packet" 2 (List.length transit);
  List.iter
    (fun s -> check Alcotest.string "delivered" "delivered" s.Sim.Tracer.sp_detail)
    transit;
  check Alcotest.int "no transit span left open" 0
    (List.length
       (List.filter
          (fun s -> s.Sim.Tracer.sp_name = "transit")
          (Sim.Tracer.live_spans tracer)));
  Topology.stop net

let prop_random_topology_connected =
  qtest ~count:50 "random topologies are connected"
    QCheck2.Gen.(pair (2 -- 20) (0 -- 200))
    (fun (n, seed) ->
      let edges = Topology.random ~n ~extra:(seed mod 5) ~seed in
      let d = Topology.reference_distances ~n edges in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if d.(i).(j) = max_int then ok := false
        done
      done;
      !ok)

(* --- Hello, driven alone through a runtime --- *)

module Hello_rt = Sublayer.Runtime.Make (Hello)

let hello_runtime engine ~deliver =
  Hello_rt.create engine ~name:"h" ~transmit:ignore ~deliver
    (Hello.initial Hello.default_config ~self:(Addr.node 0)
       ~now:(fun () -> Sim.Engine.now engine))

let hello_from h ifindex pdu = Hello_rt.from_below h (Hello.Frame (ifindex, Packet.Hello_pdu pdu))

let test_hello_up_down () =
  let engine = Sim.Engine.create () in
  let events = ref [] in
  let lost = ref false in
  let h = hello_runtime engine ~deliver:(fun e -> events := e :: !events) in
  (* Simulate the peer's hellos arriving every second until "failure". *)
  let rec peer_hello t =
    ignore
      (Sim.Engine.at engine ~time:t (fun () ->
           if not !lost then begin
             hello_from h 0 (Pdu.encode_hello (Addr.node 1));
             peer_hello (t +. 1.0)
           end))
  in
  Hello_rt.from_below h (Hello.Attach 0);
  peer_hello 0.5;
  ignore (Sim.Engine.at engine ~time:5.2 (fun () -> lost := true));
  Sim.Engine.run ~until:15. engine;
  Hello_rt.halt h;
  let ups = List.filter (function Hello.Neighbor_up _ -> true | _ -> false) !events in
  let downs = List.filter (function Hello.Neighbor_down _ -> true | _ -> false) !events in
  check Alcotest.int "one up" 1 (List.length ups);
  check Alcotest.int "one down after hold expiry" 1 (List.length downs);
  check Alcotest.(list (pair int bool)) "no neighbors left" []
    (List.map (fun (i, a) -> (i, Addr.equal a (Addr.node 1))) (Hello.neighbors (Hello_rt.state h)))

let test_hello_ignores_garbage () =
  let engine = Sim.Engine.create () in
  let events = ref 0 in
  let h = hello_runtime engine ~deliver:(fun _ -> incr events) in
  hello_from h 0 "junk";
  hello_from h 0 "";
  check Alcotest.int "no events" 0 !events

(* --- PDU codecs: one store writer and one in-place reader each, held
   to the bit-codec references in [Codec_oracle.Pdu] --- *)

module CP = Codec_oracle.Pdu

let addr_gen = QCheck2.Gen.(0 -- 0xFFFFFFFF)
let path_gen = QCheck2.Gen.(list_size (0 -- 8) addr_gen)
let dv_gen = QCheck2.Gen.(list_size (0 -- 20) (pair addr_gen (0 -- 255)))

let lsp_gen =
  QCheck2.Gen.(
    map3
      (fun origin seq adj -> { Pdu.origin; seq; adj })
      addr_gen addr_gen (list_size (0 -- 20) addr_gen))

let pv_gen = QCheck2.Gen.(list_size (0 -- 10) (pair addr_gen path_gen))

(* Random bytes, often behind one of the four magic bytes. *)
let garbage_gen =
  QCheck2.Gen.(
    map2
      (fun first rest -> match first with Some c -> String.make 1 c ^ rest | None -> rest)
      (option (oneofl [ 'H'; 'D'; 'L'; 'P' ]))
      (string_size ~gen:char (0 -- 40)))

(* Each decoder paired with its reference, compared on one input; a
   decoder that raised would fail the property. *)
let decoders_agree s =
  Pdu.decode_hello s = CP.decode_hello s
  && Pdu.decode_dv s = CP.decode_dv s
  && Pdu.decode_lsp s = CP.decode_lsp s
  && Pdu.decode_pv s = CP.decode_pv s

(* The whole PDU, each of its strict prefixes, and the PDU with trailing
   bytes must decode as the reference does. *)
let prefixes_and_tail_agree s tail =
  decoders_agree (s ^ tail)
  && List.for_all (fun cut -> decoders_agree (String.sub s 0 cut))
       (List.init (String.length s) Fun.id)

let pdu_props =
  let tail = QCheck2.Gen.(string_size ~gen:char (0 -- 8)) in
  let codec name gen ~encode ~oracle ~decode =
    [ qtest (name ^ ": writer = reference bytes") gen (fun v -> encode v = oracle v);
      qtest (name ^ ": reader inverts the writer") gen (fun v -> decode (encode v) = Some v);
      qtest (name ^ ": prefixes and trailing bytes, readers agree")
        (QCheck2.Gen.pair gen tail)
        (fun (v, tail) -> prefixes_and_tail_agree (encode v) tail) ]
  in
  codec "hello" addr_gen ~encode:Pdu.encode_hello ~oracle:CP.encode_hello
    ~decode:Pdu.decode_hello
  @ codec "dv" dv_gen ~encode:Pdu.encode_dv ~oracle:CP.encode_dv ~decode:Pdu.decode_dv
  @ codec "ls" lsp_gen ~encode:Pdu.encode_lsp ~oracle:CP.encode_lsp ~decode:Pdu.decode_lsp
  @ codec "pv" pv_gen ~encode:Pdu.encode_pv ~oracle:CP.encode_pv ~decode:Pdu.decode_pv
  @ [ qtest ~count:1000 "garbage: no reader raises, readers agree" garbage_gen
        decoders_agree ]

(* Fields wider than their widths are masked exactly as the reference's
   bit writer masks them, count fields included. *)
let test_pdu_masking () =
  let wide = [ -1; 0x1_2345_6789; min_int; 300 ] in
  List.iter
    (fun v ->
      check Alcotest.string "hello" (CP.encode_hello v) (Pdu.encode_hello v);
      check Alcotest.string "dv" (CP.encode_dv [ (v, v) ]) (Pdu.encode_dv [ (v, v) ]);
      let lsp = { Pdu.origin = v; seq = v; adj = [ v ] } in
      check Alcotest.string "ls" (CP.encode_lsp lsp) (Pdu.encode_lsp lsp);
      check Alcotest.string "pv" (CP.encode_pv [ (v, [ v ]) ]) (Pdu.encode_pv [ (v, [ v ]) ]))
    wide;
  let adj = List.init 300 Fun.id in
  let lsp = { Pdu.origin = 1; seq = 2; adj } in
  check Alcotest.string "ls count keeps its low 8 bits" (CP.encode_lsp lsp)
    (Pdu.encode_lsp lsp);
  let path = List.init 256 Fun.id in
  check Alcotest.string "pv len keeps its low 8 bits" (CP.encode_pv [ (7, path) ])
    (Pdu.encode_pv [ (7, path) ])

(* A count the buffer cannot hold is rejected before any list is built:
   the cost of the rejection does not grow with the count. *)
let test_pdu_lying_counts () =
  let ls_lie = "\x4c" ^ String.make 8 '\000' ^ "\xff" in
  let lies =
    [ ("dv", fun () -> Pdu.decode_dv "\x44\xff\xff" = None);
      ("pv", fun () -> Pdu.decode_pv "\x50\xff\xff" = None);
      ("ls", fun () -> Pdu.decode_lsp ls_lie = None) ]
  in
  List.iter
    (fun (name, reject) ->
      check Alcotest.bool (name ^ " rejected") true (reject ());
      let calls = 100 in
      let before = Gc.minor_words () in
      for _ = 1 to calls do
        ignore (Sys.opaque_identity (reject ()))
      done;
      let words = (Gc.minor_words () -. before) /. float_of_int calls in
      if words > 8. then Alcotest.failf "%s: %.1f minor words per rejection" name words)
    lies

(* --- Routing protocols over topologies (E2) --- *)

let protocols =
  [ ("dv", Distance_vector.factory ()); ("ls", Link_state.factory ());
    ("pv", Path_vector.factory ()) ]

let build_and_converge ?(seed = 3) routing n edges =
  let engine = Sim.Engine.create ~seed () in
  let net = Topology.build engine ~routing ~n edges in
  let t = Topology.converge net in
  (engine, net, t)

let test_convergence_canonical_topologies () =
  List.iter
    (fun (pname, routing) ->
      List.iter
        (fun (tname, n, edges) ->
          let _, net, t = build_and_converge routing n edges in
          (match t with
          | Some _ -> ()
          | None -> Alcotest.failf "%s did not converge on %s" pname tname);
          Topology.stop net)
        [ ("line6", 6, Topology.line 6); ("ring7", 7, Topology.ring 7);
          ("grid3x3", 9, Topology.grid 3 3);
          ("random12", 12, Topology.random ~n:12 ~extra:6 ~seed:9) ])
    protocols

let test_paths_are_shortest () =
  List.iter
    (fun (pname, routing) ->
      let n = 9 in
      let edges = Topology.grid 3 3 in
      let _, net, _ = build_and_converge routing n edges in
      let d = Topology.reference_distances ~n edges in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if i <> j then begin
            match Topology.fib_path net ~src:i ~dst:j with
            | Some path ->
                if List.length path - 1 <> d.(i).(j) then
                  Alcotest.failf "%s: %d->%d path length %d, shortest %d" pname i j
                    (List.length path - 1) d.(i).(j)
            | None -> Alcotest.failf "%s: no path %d->%d" pname i j
          end
        done
      done;
      Topology.stop net)
    protocols

let test_forwarding_delivers () =
  List.iter
    (fun (pname, routing) ->
      let engine, net, _ = build_and_converge routing 7 (Topology.ring 7) in
      for i = 0 to 6 do
        Topology.send net ~src:i ~dst:((i + 3) mod 7) (Printf.sprintf "hi-%d" i)
      done;
      Sim.Engine.run ~until:(Sim.Engine.now engine +. 2.) engine;
      for i = 0 to 6 do
        let inbox = Topology.received net ((i + 3) mod 7) in
        if not (List.exists (fun p -> Bitkit.Slice.equal_string p.Packet.payload (Printf.sprintf "hi-%d" i)) inbox)
        then Alcotest.failf "%s: packet %d lost" pname i
      done;
      Topology.stop net)
    protocols

let test_failure_reconvergence () =
  List.iter
    (fun (pname, routing) ->
      let _, net, _ = build_and_converge routing 8 (Topology.ring 8) in
      Topology.fail_link net 0 1;
      (match Topology.converge net with
      | Some _ -> ()
      | None -> Alcotest.failf "%s: no reconvergence after failure" pname);
      (* Traffic now routes the long way round. *)
      (match Topology.fib_path net ~src:0 ~dst:1 with
      | Some path -> check Alcotest.int (pname ^ " long way") 8 (List.length path)
      | None -> Alcotest.failf "%s: 0->1 unroutable" pname);
      Topology.heal_link net 0 1;
      (match Topology.converge net with
      | Some _ -> ()
      | None -> Alcotest.failf "%s: no reconvergence after heal" pname);
      (match Topology.fib_path net ~src:0 ~dst:1 with
      | Some path -> check Alcotest.int (pname ^ " direct again") 2 (List.length path)
      | None -> Alcotest.failf "%s: 0->1 unroutable after heal" pname);
      Topology.stop net)
    protocols

let test_partition_detected () =
  List.iter
    (fun (pname, routing) ->
      let _, net, _ = build_and_converge routing 6 (Topology.line 6) in
      Topology.fail_link net 2 3;
      (match Topology.converge net with
      | Some _ -> ()
      | None -> Alcotest.failf "%s: partition not converged" pname);
      check Alcotest.(option (list int)) (pname ^ " unreachable") None
        (Topology.fib_path net ~src:0 ~dst:5);
      Topology.stop net)
    protocols

let test_ttl_prevents_loops () =
  (* During transients forwarding may loop; TTL must kill such packets.
     Build a ring, fail a link, and immediately send before convergence. *)
  let engine = Sim.Engine.create ~seed:21 () in
  let net = Topology.build engine ~routing:(Distance_vector.factory ()) ~n:6 (Topology.ring 6) in
  ignore (Topology.converge net);
  Topology.fail_link net 0 5;
  (* send before reconvergence *)
  Topology.send net ~src:1 ~dst:5 "maybe-loops";
  Sim.Engine.run ~until:(Sim.Engine.now engine +. 0.2) engine;
  (* The engine terminating at all (no infinite event cascade) plus
     bounded forwarded counts shows TTL works. *)
  let total_forwarded =
    let s = ref 0 in
    for i = 0 to 5 do
      s := !s + (Router.stats (Topology.router net i)).Router.forwarded
    done;
    !s
  in
  check Alcotest.bool "bounded forwarding" true (total_forwarded < 200);
  Topology.stop net

let test_dv_and_ls_agree () =
  (* All protocols must install the same path lengths everywhere —
     swapping route computation does not change the forwarding outcome. *)
  let n = 10 in
  let edges = Topology.random ~n:10 ~extra:5 ~seed:31 in
  let paths routing =
    let _, net, t = build_and_converge routing n edges in
    check Alcotest.bool "converged" true (t <> None);
    let m = Array.make_matrix n n 0 in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        m.(i).(j) <-
          (match Topology.fib_path net ~src:i ~dst:j with
          | Some p -> List.length p
          | None -> -1)
      done
    done;
    Topology.stop net;
    m
  in
  let dv = paths (Distance_vector.factory ()) in
  let ls = paths (Link_state.factory ()) in
  let pv = paths (Path_vector.factory ()) in
  check Alcotest.bool "dv = ls" true (dv = ls);
  check Alcotest.bool "ls = pv" true (ls = pv)

let test_router_stats () =
  let engine, net, _ = build_and_converge (Link_state.factory ()) 4 (Topology.line 4) in
  Topology.send net ~src:0 ~dst:3 "x";
  Sim.Engine.run ~until:(Sim.Engine.now engine +. 1.) engine;
  check Alcotest.int "delivered at 3" 1 (Router.stats (Topology.router net 3)).Router.delivered;
  check Alcotest.int "forwarded by 1" 1 (Router.stats (Topology.router net 1)).Router.forwarded;
  check Alcotest.int "originated by 0" 1 (Router.stats (Topology.router net 0)).Router.originated;
  Topology.stop net

(* After [Topology.stop] a converged network sends nothing more: hello,
   routing and their triggers are cancelled, the deliveries in flight at
   stop land on stopped routers, and the engine runs dry. *)
let test_stop_quiesces () =
  List.iter
    (fun (pname, routing) ->
      let engine, net, t = build_and_converge ~seed:33 routing 10 (Topology.ring 10) in
      check Alcotest.bool (pname ^ " converged") true (t <> None);
      Topology.stop net;
      let bytes = Topology.routing_traffic_bytes net in
      let in_flight = Sim.Engine.pending engine in
      let fired = Sim.Engine.events_fired engine in
      Sim.Engine.run ~until:(Sim.Engine.now engine +. 600.) engine;
      check Alcotest.int (pname ^ ": no PDU sent after stop") bytes
        (Topology.routing_traffic_bytes net);
      check Alcotest.int (pname ^ ": nothing pending") 0 (Sim.Engine.pending engine);
      check Alcotest.bool (pname ^ ": only the deliveries in flight fired") true
        (Sim.Engine.events_fired engine - fired <= in_flight))
    protocols

(* A stopped router drops what it is asked to originate, as it drops the
   frames that reach it: the packet is not sent, and nothing is left
   pending. *)
let test_stopped_router_sends_nothing () =
  List.iter
    (fun (pname, routing) ->
      let engine, net, _ = build_and_converge ~seed:33 routing 10 (Topology.ring 10) in
      Topology.stop net;
      Sim.Engine.run ~until:(Sim.Engine.now engine +. 10.) engine;
      let bytes = Topology.routing_traffic_bytes net in
      Topology.send net ~src:0 ~dst:5 "after stop";
      check Alcotest.int (pname ^ ": no byte sent") bytes (Topology.routing_traffic_bytes net);
      check Alcotest.int (pname ^ ": nothing pending") 0 (Sim.Engine.pending engine);
      check Alcotest.int (pname ^ ": nothing originated") 0
        (Router.stats (Topology.router net 0)).Router.originated)
    protocols

(* [fib.lookups] and [fib.misses] count the data path only: the harness
   walks the FIBs to decide convergence without touching them, so after
   converging both read 0, and one packet across ring(10) adds one lookup
   per forwarding hop — the hops [router.forwarded] counts and the FIB
   monitor checks. *)
let test_fib_counts_data_path () =
  let engine = Sim.Engine.create ~seed:33 () in
  let stats = Sublayer.Stats.create ~label:"fib-count" () in
  let monitors = Monitor.Runtime.create ~label:"fib-count" () in
  let net =
    Topology.build engine ~ins:(Sublayer.Instrument.v ~stats ~monitors ())
      ~routing:(Distance_vector.factory ()) ~n:10 (Topology.ring 10)
  in
  if Topology.converge net = None then Alcotest.fail "ring(10) did not converge";
  let counter name =
    Option.value ~default:0 (List.assoc_opt name (Sublayer.Stats.snapshot stats))
  in
  check Alcotest.int "no lookup while converging" 0 (counter "fib.lookups");
  check Alcotest.int "no miss while converging" 0 (counter "fib.misses");
  Topology.send net ~src:0 ~dst:5 "counted";
  Sim.Engine.run ~until:(Sim.Engine.now engine +. 1.) engine;
  check Alcotest.int "delivered" 1 (List.length (Topology.received net 5));
  check Alcotest.int "one lookup per hop" 5 (counter "fib.lookups");
  check Alcotest.int "forwarded" 5 (counter "router.forwarded");
  check Alcotest.(triple string int int) "monitor checked the same hops" ("fib", 5, 0)
    (List.find (fun (k, _, _) -> k = "fib") (Monitor.Runtime.verdicts monitors))

(* --- Route computation as a machine: [initial] and [handle_*] called
   directly, with no engine --- *)

(* Three routers on a line, 0 - 1 - 2: [wires.(r)] maps each interface of
   router [r] to the peer at its far end and the peer's interface. *)
let wires = [| [ (0, (1, 0)) ]; [ (0, (0, 0)); (1, (2, 0)) ]; [ (0, (1, 1)) ] |]

let test_protocol_machine routing ~triggered () =
  let module P = (val routing : Routing.S) in
  let module M = Sublayer.Machine in
  let st = Array.init 3 (fun r -> P.initial (Sublayer.Stats.unregistered P.scope) (Addr.node r)) in
  let fib = Array.init 3 (fun _ -> Hashtbl.create 4) in
  let inbox = Queue.create () and triggers = Queue.create () in
  (* One step of router [r]: its PDUs go to the far end's inbox, its
     route writes to its table, its triggered updates to a queue. *)
  let step r handle =
    let s, acts = handle st.(r) in
    st.(r) <- s;
    List.iter
      (function
        | M.Down (i, frame) ->
            let peer, j = List.assoc i wires.(r) in
            Queue.add (peer, Hello.Received (j, frame)) inbox
        | M.Up (Routing.Install (dst, i)) -> Hashtbl.replace fib.(r) dst i
        | M.Up (Routing.Uninstall dst) -> Hashtbl.remove fib.(r) dst
        | M.Set_timer (Routing.Trigger, _) -> Queue.add r triggers
        | _ -> ())
      acts;
    acts
  in
  let timers acts = List.filter_map (function M.Set_timer (tm, _) -> Some tm | _ -> None) acts in
  let sent acts = List.filter_map (function M.Down (i, _) -> Some i | _ -> None) acts in
  let installed acts =
    List.filter_map (function M.Up (Routing.Install (d, i)) -> Some (d, i) | _ -> None) acts
  in
  let uninstalled acts =
    List.sort compare
      (List.filter_map (function M.Up (Routing.Uninstall d) -> Some d | _ -> None) acts)
  in
  for r = 0 to 2 do
    let acts = step r (fun s -> P.handle_down_ind s Hello.Started) in
    check Alcotest.int "start: one action" 1 (List.length acts);
    check Alcotest.bool "start: it arms the periodic timer" true (timers acts = [ Routing.Periodic ])
  done;
  (* Router 0's first neighbour. Link state installs nothing until the
     neighbour's LSP confirms the link both ways. *)
  let acts = step 0 (fun s -> P.handle_down_ind s (Hello.Neighbor_up (0, Addr.node 1))) in
  check Alcotest.(list int) "neighbour up: one PDU, on that interface" [ 0 ] (sent acts);
  check Alcotest.(list (pair int int)) "neighbour up: the neighbour installed"
    (if triggered then [ (Addr.node 1, 0) ] else [])
    (installed acts);
  check Alcotest.bool "neighbour up: one triggered update armed" true
    (timers acts = if triggered then [ Routing.Trigger ] else []);
  List.iter
    (fun (r, i, peer) ->
      ignore (step r (fun s -> P.handle_down_ind s (Hello.Neighbor_up (i, Addr.node peer)))))
    [ (1, 0, 0); (1, 1, 2); (2, 0, 1) ];
  (* Hand every PDU to the router at the far end, firing each triggered
     update once the PDUs in flight are in. *)
  let rec exchange () =
    if not (Queue.is_empty inbox) then begin
      let r, ev = Queue.pop inbox in
      ignore (step r (fun s -> P.handle_down_ind s ev));
      exchange ()
    end
    else if not (Queue.is_empty triggers) then begin
      let r = Queue.pop triggers in
      ignore (step r (fun s -> P.handle_timer s Routing.Trigger));
      exchange ()
    end
  in
  exchange ();
  let table r = List.sort compare (List.of_seq (Hashtbl.to_seq fib.(r))) in
  let n = Addr.node in
  check Alcotest.(list (pair int int)) "PDUs install router 0's routes" [ (n 1, 0); (n 2, 0) ] (table 0);
  check Alcotest.(list (pair int int)) "PDUs install router 1's routes" [ (n 0, 0); (n 2, 1) ] (table 1);
  check Alcotest.(list (pair int int)) "PDUs install router 2's routes" [ (n 0, 0); (n 1, 0) ] (table 2);
  let acts = step 0 (fun s -> P.handle_down_ind s (Hello.Neighbor_down (0, n 1))) in
  check Alcotest.(list int) "neighbour down: routes via it uninstalled" [ n 1; n 2 ] (uninstalled acts)

(* The runtime keeps one entry per armed timer, so a long-running
   network's live heap stays flat instead of growing with every HELLO
   sent. *)
let test_hello_memory_flat () =
  let engine, net, _ =
    build_and_converge ~seed:33 (Link_state.factory ()) 10 (Topology.ring 10)
  in
  let t0 = Sim.Engine.now engine in
  let live_at dt =
    Sim.Engine.run ~until:(t0 +. dt) engine;
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let early = live_at 1000. in
  let late = live_at 4000. in
  Topology.stop net;
  if abs (late - early) >= 1000 then
    Alcotest.failf "live words %d at +1000 s, %d at +4000 s" early late

let () =
  Alcotest.run "network"
    [
      ( "addr",
        [
          Alcotest.test_case "parse" `Quick test_addr_parse;
          Alcotest.test_case "prefix" `Quick test_addr_prefix;
          prop_addr_roundtrip;
        ] );
      ( "fib",
        [
          Alcotest.test_case "longest prefix match" `Quick test_fib_lpm;
          Alcotest.test_case "default route" `Quick test_fib_default_route;
          Alcotest.test_case "replace/remove" `Quick test_fib_replace_remove;
          Alcotest.test_case "host routes" `Quick test_fib_host_routes;
          prop_fib_lpm_reference;
        ] );
      ( "packet",
        [
          Alcotest.test_case "ttl" `Quick test_packet_ttl;
          Alcotest.test_case "nonce" `Quick test_packet_nonce;
          Alcotest.test_case "identical payloads, distinct transit spans"
            `Quick test_transit_spans_of_identical_payloads;
          prop_random_topology_connected;
        ] );
      ( "hello",
        [
          Alcotest.test_case "up/down lifecycle" `Quick test_hello_up_down;
          Alcotest.test_case "garbage ignored" `Quick test_hello_ignores_garbage;
          Alcotest.test_case "live heap stays flat" `Quick test_hello_memory_flat;
        ] );
      ( "pdu",
        pdu_props
        @ [
            Alcotest.test_case "fields masked to their widths" `Quick test_pdu_masking;
            Alcotest.test_case "lying counts rejected in constant words" `Quick
              test_pdu_lying_counts;
          ] );
      ( "routing",
        [
          Alcotest.test_case "convergence (E2)" `Slow test_convergence_canonical_topologies;
          Alcotest.test_case "shortest paths" `Slow test_paths_are_shortest;
          Alcotest.test_case "forwarding delivers" `Quick test_forwarding_delivers;
          Alcotest.test_case "failure reconvergence" `Slow test_failure_reconvergence;
          Alcotest.test_case "partition detected" `Quick test_partition_detected;
          Alcotest.test_case "ttl bounds transients" `Quick test_ttl_prevents_loops;
          Alcotest.test_case "dv = ls = pv outcomes (E2)" `Slow test_dv_and_ls_agree;
          Alcotest.test_case "router stats" `Quick test_router_stats;
          Alcotest.test_case "stop quiesces the network" `Quick test_stop_quiesces;
          Alcotest.test_case "a stopped router sends nothing" `Quick
            test_stopped_router_sends_nothing;
          Alcotest.test_case "fib counters count the data path" `Quick
            test_fib_counts_data_path;
          Alcotest.test_case "dv, no engine" `Quick
            (test_protocol_machine (Distance_vector.factory ()) ~triggered:true);
          Alcotest.test_case "ls, no engine" `Quick
            (test_protocol_machine (Link_state.factory ()) ~triggered:false);
          Alcotest.test_case "pv, no engine" `Quick
            (test_protocol_machine (Path_vector.factory ()) ~triggered:true);
        ] );
    ]
