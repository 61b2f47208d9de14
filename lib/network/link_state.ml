let refresh_interval = 5.0

type lsp = Pdu.lsp = { origin : Addr.t; seq : int; adj : Addr.t list }

type state = {
  self : Addr.t;
  port : Routing.port;
  lsdb : (Addr.t, lsp) Hashtbl.t;
  neighbors : (int, Addr.t) Hashtbl.t;  (** alive adjacencies *)
  mutable own_seq : int;
  mutable installed : (Addr.t, int) Hashtbl.t;
  c_sent : Sublayer.Stats.counter;
  c_received : Sublayer.Stats.counter;
  c_undecodable : Sublayer.Stats.counter;
  c_spf_runs : Sublayer.Stats.counter;
}

let flood st ?except lsp =
  let pdu = Pdu.encode_lsp lsp in
  Hashtbl.iter
    (fun i _ ->
      if Some i <> except then begin
        Sublayer.Stats.incr st.c_sent;
        Routing.send st.port i pdu
      end)
    st.neighbors

(* Unit-cost SPF from self over two-way-confirmed adjacencies; returns the
   first-hop neighbor for every reachable destination. *)
let spf st =
  let adjacency a =
    match Hashtbl.find_opt st.lsdb a with Some l -> l.adj | None -> []
  in
  let two_way a b = List.mem b (adjacency a) && List.mem a (adjacency b) in
  let self = st.self in
  let first_hop = Hashtbl.create 32 in
  let visited = Hashtbl.create 32 in
  Hashtbl.replace visited self ();
  let queue = Queue.create () in
  (* Seed with live adjacencies (the self LSP mirrors them). *)
  Hashtbl.iter
    (fun _ peer ->
      if (not (Hashtbl.mem visited peer)) && two_way self peer then begin
        Hashtbl.replace visited peer ();
        Hashtbl.replace first_hop peer peer;
        Queue.add peer queue
      end)
    st.neighbors;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    let hop = Hashtbl.find first_hop u in
    List.iter
      (fun v ->
        if (not (Hashtbl.mem visited v)) && two_way u v then begin
          Hashtbl.replace visited v ();
          Hashtbl.replace first_hop v hop;
          Queue.add v queue
        end)
      (adjacency u)
  done;
  first_hop

let recompute st =
  Sublayer.Stats.incr st.c_spf_runs;
  let first_hop = spf st in
  let ifindex_of_peer peer =
    Hashtbl.fold
      (fun i p acc -> if Addr.equal p peer then Some i else acc)
      st.neighbors None
  in
  let next = Hashtbl.create 32 in
  Hashtbl.iter
    (fun dst hop ->
      match ifindex_of_peer hop with
      | Some i -> Hashtbl.replace next dst i
      | None -> ())
    first_hop;
  (* Diff against what is currently installed. *)
  Hashtbl.iter
    (fun dst i ->
      match Hashtbl.find_opt st.installed dst with
      | Some j when j = i -> ()
      | _ -> Routing.install st.port dst i)
    next;
  Hashtbl.iter
    (fun dst _ -> if not (Hashtbl.mem next dst) then Routing.uninstall st.port dst)
    st.installed;
  st.installed <- next

let regenerate_own st =
  st.own_seq <- st.own_seq + 1;
  let adj = Hashtbl.fold (fun _ p acc -> p :: acc) st.neighbors [] in
  let lsp = { origin = st.self; seq = st.own_seq; adj } in
  Hashtbl.replace st.lsdb lsp.origin lsp;
  flood st lsp;
  recompute st

let neighbor_up st ~ifindex peer =
  Hashtbl.replace st.neighbors ifindex peer;
  (* Database sync: give the new adjacency everything we know. *)
  Hashtbl.iter
    (fun _ lsp ->
      Sublayer.Stats.incr st.c_sent;
      Routing.send st.port ifindex (Pdu.encode_lsp lsp))
    st.lsdb;
  regenerate_own st

let neighbor_down st ~ifindex _peer =
  Hashtbl.remove st.neighbors ifindex;
  regenerate_own st

let on_pdu st ~ifindex pdu =
  match Pdu.decode_lsp pdu with
  | None -> Sublayer.Stats.incr st.c_undecodable
  | Some lsp ->
      Sublayer.Stats.incr st.c_received;
      if Addr.equal lsp.origin st.self then begin
        (* A stale copy of our own LSP is circulating; outbid it. *)
        if lsp.seq >= st.own_seq then begin
          st.own_seq <- lsp.seq;
          regenerate_own st
        end
      end
      else begin
        let fresher =
          match Hashtbl.find_opt st.lsdb lsp.origin with
          | Some existing -> lsp.seq > existing.seq
          | None -> true
        in
        if fresher then begin
          Hashtbl.replace st.lsdb lsp.origin lsp;
          flood st ~except:ifindex lsp;
          recompute st
        end
      end

let start st = Routing.set_timer st.port Routing.Periodic refresh_interval

let on_timer st _ =
  (match Hashtbl.find_opt st.lsdb st.self with Some own -> flood st own | None -> ());
  start st

let factory =
  (module Routing.Make (struct
    let name = "link-state"

    type t = state

    let initial sc self =
      { self; port = Routing.port sc; lsdb = Hashtbl.create 32;
        neighbors = Hashtbl.create 8; own_seq = 0; installed = Hashtbl.create 32;
        c_sent = Sublayer.Stats.counter sc "lsps_sent";
        c_received = Sublayer.Stats.counter sc "lsps_received";
        c_undecodable = Sublayer.Stats.counter sc "undecodable";
        c_spf_runs = Sublayer.Stats.counter sc "spf_runs" }

    let port st = st.port
    let start, neighbor_up, neighbor_down, on_pdu, on_timer =
      (start, neighbor_up, neighbor_down, on_pdu, on_timer)
  end) : Routing.S)
