type link = {
  fwd : Packet.frame Sim.Channel.t;  (* low node -> high node *)
  rev : Packet.frame Sim.Channel.t;
  mutable saved : Sim.Channel.config;
  mutable up : bool;
}

type node = { router : Router.t; received : Packet.t Queue.t }

type t = {
  engine : Sim.Engine.t;
  nodes : node array;
  link_tbl : (int * int, link) Hashtbl.t;
}

let engine t = t.engine
let router t i = t.nodes.(i).router

let line n = List.init (n - 1) (fun i -> (i, i + 1))

let ring n = line n @ [ (n - 1, 0) ]

let grid w h =
  let id x y = (y * w) + x in
  let horizontal =
    List.concat
      (List.init h (fun y -> List.init (w - 1) (fun x -> (id x y, id (x + 1) y))))
  in
  let vertical =
    List.concat
      (List.init (h - 1) (fun y -> List.init w (fun x -> (id x y, id x (y + 1)))))
  in
  horizontal @ vertical

let norm (a, b) = if a < b then (a, b) else (b, a)

let random ~n ~extra ~seed =
  let rng = Bitkit.Rng.create seed in
  (* Random spanning tree: attach each node to a random earlier one. *)
  let tree = List.init (n - 1) (fun i -> (Bitkit.Rng.int rng (i + 1), i + 1)) in
  (* The complete graph bounds how many chords can exist at all. *)
  let extra = min extra ((n * (n - 1) / 2) - (n - 1)) in
  let mem edges e = List.mem (norm e) (List.map norm edges) in
  let rec chords k edges =
    if k = 0 then edges
    else begin
      let a = Bitkit.Rng.int rng n and b = Bitkit.Rng.int rng n in
      if a = b || mem edges (a, b) then chords k edges
      else chords (k - 1) ((min a b, max a b) :: edges)
    end
  in
  chords extra tree

let build engine ?(channel = Sim.Channel.ideal) ?(ins = Sublayer.Instrument.none)
    ~routing ~n edges =
  (* One shared registry for the whole network, registered once. *)
  (match (ins.Sublayer.Instrument.telemetry, ins.Sublayer.Instrument.stats) with
  | Some tele, Some reg -> Sublayer.Stats.telemetry_source tele ~name:"net" reg
  | _ -> ());
  let nodes =
    Array.init n (fun i ->
        let received = Queue.create () in
        let router =
          Router.create engine ~ins ~addr:(Addr.node i) ~routing
            ~deliver:(fun p -> Queue.add p received)
            ()
        in
        { router; received })
  in
  let link_tbl = Hashtbl.create (List.length edges) in
  let t = { engine; nodes; link_tbl } in
  List.iter
    (fun e ->
      let a, b = norm e in
      if a = b || Hashtbl.mem link_tbl (a, b) then invalid_arg "Topology.build: bad edge";
      (* Each direction is a [Sublayer.Link]: the interface transmits
         into the link, the channel delivers into it, the link hands
         frames to the far router. Channels stay addressable for
         fail/heal. *)
      let lab = Sublayer.Link.make ~id:(Printf.sprintf "%d->%d" a b) () in
      let lba = Sublayer.Link.make ~id:(Printf.sprintf "%d->%d" b a) () in
      let fwd =
        Sim.Channel.create engine channel ~size:Packet.frame_size
          ~deliver:(fun f -> Sublayer.Link.deliver lab f)
          ()
      in
      let rev =
        Sim.Channel.create engine channel ~size:Packet.frame_size
          ~deliver:(fun f -> Sublayer.Link.deliver lba f)
          ()
      in
      Sublayer.Link.set_transmit lab (fun f -> Sim.Channel.send fwd f);
      Sublayer.Link.set_transmit lba (fun f -> Sim.Channel.send rev f);
      let if_a =
        Router.add_interface nodes.(a).router
          ~transmit:(fun f -> Sublayer.Link.transmit lab f)
      in
      let if_b =
        Router.add_interface nodes.(b).router
          ~transmit:(fun f -> Sublayer.Link.transmit lba f)
      in
      Sublayer.Link.attach lab (fun f -> Router.on_frame nodes.(b).router ~ifindex:if_b f);
      Sublayer.Link.attach lba (fun f -> Router.on_frame nodes.(a).router ~ifindex:if_a f);
      Hashtbl.replace link_tbl (a, b) { fwd; rev; saved = channel; up = true })
    edges;
  t

(* String convenience for tests; [of_string] wraps without copying. *)
let send t ~src ~dst payload =
  Router.originate t.nodes.(src).router ~dst:(Addr.node dst)
    (Bitkit.Slice.of_string payload)

let received t i = List.of_seq (Queue.to_seq t.nodes.(i).received)

let clear_received t = Array.iter (fun n -> Queue.clear n.received) t.nodes

let find_link t a b =
  match Hashtbl.find_opt t.link_tbl (norm (a, b)) with
  | Some l -> l
  | None -> invalid_arg "Topology: no such link"

let fail_link t a b =
  let l = find_link t a b in
  if l.up then begin
    l.saved <- Sim.Channel.config l.fwd;
    l.up <- false;
    let dead = { l.saved with Sim.Channel.loss = 1.0 } in
    Sim.Channel.set_config l.fwd dead;
    Sim.Channel.set_config l.rev dead
  end

let heal_link t a b =
  let l = find_link t a b in
  if not l.up then begin
    l.up <- true;
    Sim.Channel.set_config l.fwd l.saved;
    Sim.Channel.set_config l.rev l.saved
  end

let flap_link t a b ~at ~duration =
  let e = engine t in
  ignore (Sim.Engine.at e ~time:at (fun () -> fail_link t a b));
  ignore (Sim.Engine.at e ~time:(at +. duration) (fun () -> heal_link t a b))

let alive_edges t =
  Hashtbl.fold (fun e l acc -> if l.up then e :: acc else acc) t.link_tbl []
  |> List.sort compare

let reference_distances ~n edges =
  let inf = max_int in
  let d = Array.make_matrix n n inf in
  for i = 0 to n - 1 do
    d.(i).(i) <- 0
  done;
  List.iter
    (fun (a, b) ->
      d.(a).(b) <- 1;
      d.(b).(a) <- 1)
    edges;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if d.(i).(k) <> inf && d.(k).(j) <> inf && d.(i).(k) + d.(k).(j) < d.(i).(j)
        then d.(i).(j) <- d.(i).(k) + d.(k).(j)
      done
    done
  done;
  d

(* The node at the other end of [node]'s interface [ifindex], as its
   hello sublayer last heard it. *)
let neighbor_of t node ifindex =
  match List.assoc_opt ifindex (Router.neighbors t.nodes.(node).router) with
  | Some peer_addr ->
      let n = Array.length t.nodes in
      let rec find i =
        if i >= n then None
        else if Addr.equal (Addr.node i) peer_addr then Some i
        else find (i + 1)
      in
      find 0
  | None -> None

let fib_path t ~src ~dst =
  let n = Array.length t.nodes in
  let dst_addr = Addr.node dst in
  let rec walk here acc budget =
    if here = dst then Some (List.rev (here :: acc))
    else if budget = 0 || List.mem here acc then None
    else begin
      match Fib.find (Router.fib t.nodes.(here).router) dst_addr with
      | None -> None
      | Some ifindex -> (
          match neighbor_of t here ifindex with
          | None -> None
          | Some next -> walk next (here :: acc) (budget - 1))
    end
  in
  walk src [] (2 * n)

let converged t =
  let n = Array.length t.nodes in
  let d = reference_distances ~n (alive_edges t) in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j && !ok then begin
        match fib_path t ~src:i ~dst:j with
        | Some path ->
            if d.(i).(j) = max_int || List.length path - 1 <> d.(i).(j) then ok := false
        | None -> if d.(i).(j) <> max_int then ok := false
      end
    done
  done;
  !ok

let converge ?(step = 0.5) t =
  let deadline = Sim.Engine.now t.engine +. 300. in
  let rec go () =
    if converged t then Some (Sim.Engine.now t.engine)
    else if Sim.Engine.now t.engine >= deadline then None
    else begin
      Sim.Engine.run ~until:(Sim.Engine.now t.engine +. step) t.engine;
      go ()
    end
  in
  go ()

let routing_traffic_bytes t =
  Hashtbl.fold
    (fun _ l acc ->
      acc + (Sim.Channel.stats l.fwd).Sim.Channel.bytes_sent
      + (Sim.Channel.stats l.rev).Sim.Channel.bytes_sent)
    t.link_tbl 0

let stop t = Array.iter (fun n -> Router.stop n.router) t.nodes
