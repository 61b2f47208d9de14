type config = {
  advertise_interval : float;
  triggered_delay : float;
  infinity_metric : int;
}

let default_config =
  { advertise_interval = 2.0; triggered_delay = 0.05; infinity_metric = 16 }

type entry = { mutable metric : int; mutable via : int }

type state = {
  env : Routing.env;
  cfg : config;
  table : (Addr.t, entry) Hashtbl.t;  (** excludes self *)
  neighbors : (int, Addr.t) Hashtbl.t;
  mutable trigger : Sim.Engine.handle option;
      (** the armed triggered update, which batches every change made
          before it fires *)
  mutable periodic : Sim.Engine.handle option;
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
  (st.env.Routing.self, 0) :: entries

let advertise st =
  Hashtbl.iter
    (fun i _ ->
      Sublayer.Stats.incr st.c_sent;
      st.env.Routing.send i (Pdu.encode_dv (vector_for st i)))
    st.neighbors

let arm_trigger st =
  if Option.is_none st.trigger then
    st.trigger <-
      Some
        (Sim.Engine.schedule st.env.Routing.engine ~after:st.cfg.triggered_delay
           (fun () ->
             st.trigger <- None;
             Sublayer.Stats.incr st.c_triggered;
             advertise st))

let set_route st dst metric via =
  match Hashtbl.find_opt st.table dst with
  | Some e ->
      let was_reachable = e.metric < st.cfg.infinity_metric in
      if e.metric <> metric || e.via <> via then begin
        e.metric <- metric;
        e.via <- via;
        let reachable = metric < st.cfg.infinity_metric in
        if reachable then st.env.Routing.install dst via
        else if was_reachable then st.env.Routing.uninstall dst;
        arm_trigger st
      end
  | None ->
      Hashtbl.replace st.table dst { metric; via };
      if metric < st.cfg.infinity_metric then begin
        st.env.Routing.install dst via;
        arm_trigger st
      end

let neighbor_up st ~ifindex peer =
  Hashtbl.replace st.neighbors ifindex peer;
  (match Hashtbl.find_opt st.table peer with
  | Some e when e.metric <= 1 -> ()
  | _ -> set_route st peer 1 ifindex);
  (* Give the new neighbor our view immediately. *)
  Sublayer.Stats.incr st.c_sent;
  st.env.Routing.send ifindex (Pdu.encode_dv (vector_for st ifindex))

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
          if not (Addr.equal dst st.env.Routing.self) then begin
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

let routes st =
  Hashtbl.fold
    (fun dst e acc -> if e.metric < st.cfg.infinity_metric then (dst, e.via) :: acc else acc)
    st.table []
  |> List.sort compare

let factory ?(config = default_config) () =
  {
    Routing.protocol = "distance-vector";
    make =
      (fun env ->
        let st =
          { env; cfg = config; table = Hashtbl.create 32; neighbors = Hashtbl.create 8;
            trigger = None; periodic = None;
            c_sent = Sublayer.Stats.counter env.Routing.stats "vectors_sent";
            c_received = Sublayer.Stats.counter env.Routing.stats "vectors_received";
            c_undecodable = Sublayer.Stats.counter env.Routing.stats "undecodable";
            c_triggered = Sublayer.Stats.counter env.Routing.stats "triggered_updates" }
        in
        let rec periodic () =
          st.periodic <-
            Some
              (Sim.Engine.schedule env.Routing.engine ~after:config.advertise_interval
                 (fun () ->
                   advertise st;
                   periodic ()))
        in
        periodic ();
        {
          Routing.rname = "distance-vector";
          neighbor_up = (fun ~ifindex peer -> neighbor_up st ~ifindex peer);
          neighbor_down = (fun ~ifindex peer -> neighbor_down st ~ifindex peer);
          on_pdu = (fun ~ifindex pdu -> on_pdu st ~ifindex pdu);
          routes = (fun () -> routes st);
          stop =
            (fun () -> List.iter (Option.iter Sim.Engine.cancel) [ st.periodic; st.trigger ]);
        });
  }
