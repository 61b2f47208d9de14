type config = {
  advertise_interval : float;
  triggered_delay : float;
  infinity_metric : int;
}

let default_config =
  { advertise_interval = 2.0; triggered_delay = 0.05; infinity_metric = 16 }

type entry = { mutable metric : int; mutable via : int }

type state = {
  cfg : config;
  self : Addr.t;
  port : Routing.port;
  table : (Addr.t, entry) Hashtbl.t;  (** excludes self *)
  neighbors : (int, Addr.t) Hashtbl.t;
  mutable triggered : bool;
      (** a triggered update is armed; it batches every change made
          before it fires *)
  c_sent : Sublayer.Stats.counter;
  c_received : Sublayer.Stats.counter;
  c_undecodable : Sublayer.Stats.counter;
  c_triggered : Sublayer.Stats.counter;
}

(* The advertised vector for interface [i]: self at metric 0, every table
   entry at its metric — except routes learned via [i], poisoned to
   infinity (split horizon with poisoned reverse). *)
let vector_for st i =
  let entries =
    Hashtbl.fold
      (fun dst e acc ->
        let metric = if e.via = i then st.cfg.infinity_metric else e.metric in
        (dst, metric) :: acc)
      st.table []
  in
  (st.self, 0) :: entries

let advertise st =
  Hashtbl.iter
    (fun i _ ->
      Sublayer.Stats.incr st.c_sent;
      Routing.send st.port i (Pdu.encode_dv (vector_for st i)))
    st.neighbors

let arm_trigger st =
  if not st.triggered then begin
    st.triggered <- true;
    Routing.set_timer st.port Routing.Trigger st.cfg.triggered_delay
  end

let set_route st dst metric via =
  match Hashtbl.find_opt st.table dst with
  | Some e ->
      let was_reachable = e.metric < st.cfg.infinity_metric in
      if e.metric <> metric || e.via <> via then begin
        e.metric <- metric;
        e.via <- via;
        let reachable = metric < st.cfg.infinity_metric in
        if reachable then Routing.install st.port dst via
        else if was_reachable then Routing.uninstall st.port dst;
        arm_trigger st
      end
  | None ->
      Hashtbl.replace st.table dst { metric; via };
      if metric < st.cfg.infinity_metric then begin
        Routing.install st.port dst via;
        arm_trigger st
      end

let neighbor_up st ~ifindex peer =
  Hashtbl.replace st.neighbors ifindex peer;
  (match Hashtbl.find_opt st.table peer with
  | Some e when e.metric <= 1 -> ()
  | _ -> set_route st peer 1 ifindex);
  (* Give the new neighbor our view immediately. *)
  Sublayer.Stats.incr st.c_sent;
  Routing.send st.port ifindex (Pdu.encode_dv (vector_for st ifindex))

let neighbor_down st ~ifindex _peer =
  Hashtbl.remove st.neighbors ifindex;
  Hashtbl.iter
    (fun dst e -> if e.via = ifindex then set_route st dst st.cfg.infinity_metric e.via)
    st.table

let on_pdu st ~ifindex pdu =
  match Pdu.decode_dv pdu with
  | None -> Sublayer.Stats.incr st.c_undecodable
  | Some entries ->
      Sublayer.Stats.incr st.c_received;
      List.iter
        (fun (dst, metric) ->
          if not (Addr.equal dst st.self) then begin
            let cost = min (metric + 1) st.cfg.infinity_metric in
            match Hashtbl.find_opt st.table dst with
            | Some e when e.via = ifindex ->
                (* Whatever our current next hop says overrides. *)
                if e.metric <> cost then set_route st dst cost ifindex
            | Some e when cost < e.metric -> set_route st dst cost ifindex
            | Some _ -> ()
            | None -> if cost < st.cfg.infinity_metric then set_route st dst cost ifindex
          end)
        entries

let start st = Routing.set_timer st.port Routing.Periodic st.cfg.advertise_interval

let on_timer st = function
  | Routing.Periodic ->
      advertise st;
      start st
  | Routing.Trigger ->
      st.triggered <- false;
      Sublayer.Stats.incr st.c_triggered;
      advertise st

let factory ?(config = default_config) () =
  (module Routing.Make (struct
    let name = "distance-vector"

    type t = state

    let initial sc self =
      { cfg = config; self; port = Routing.port sc; table = Hashtbl.create 32;
        neighbors = Hashtbl.create 8; triggered = false;
        c_sent = Sublayer.Stats.counter sc "vectors_sent";
        c_received = Sublayer.Stats.counter sc "vectors_received";
        c_undecodable = Sublayer.Stats.counter sc "undecodable";
        c_triggered = Sublayer.Stats.counter sc "triggered_updates" }

    let port st = st.port
    let start, neighbor_up, neighbor_down, on_pdu, on_timer =
      (start, neighbor_up, neighbor_down, on_pdu, on_timer)
  end) : Routing.S)
