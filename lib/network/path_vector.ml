type config = {
  advertise_interval : float;
  triggered_delay : float;
  max_path : int;
}

let default_config =
  { advertise_interval = 2.0; triggered_delay = 0.05; max_path = 32 }

(* A route to [dst]: the interface to the next hop and the full path of
   router addresses (next hop first). *)
type entry = { mutable path : Addr.t list; mutable via : int; mutable valid : bool }

type state = {
  env : Routing.env;
  cfg : config;
  table : (Addr.t, entry) Hashtbl.t;
  neighbors : (int, Addr.t) Hashtbl.t;
  mutable trigger : Sim.Engine.handle option;
      (** the armed triggered update, which batches every change made
          before it fires *)
  mutable periodic : Sim.Engine.handle option;
  c_sent : Sublayer.Stats.counter;
  c_received : Sublayer.Stats.counter;
  c_undecodable : Sublayer.Stats.counter;
  c_loops_rejected : Sublayer.Stats.counter;
}

(* Our advertisement: ourselves (the empty path: "I am the destination")
   plus every valid route's path as-is; the receiver prepends us. *)
let vector_for st =
  (st.env.Routing.self, [])
  :: Hashtbl.fold
       (fun dst e acc -> if e.valid then (dst, e.path) :: acc else acc)
       st.table []

let advertise st =
  let pdu = Pdu.encode_pv (vector_for st) in
  Hashtbl.iter
    (fun i _ ->
      Sublayer.Stats.incr st.c_sent;
      st.env.Routing.send i pdu)
    st.neighbors

let arm_trigger st =
  if Option.is_none st.trigger then
    st.trigger <-
      Some
        (Sim.Engine.schedule st.env.Routing.engine ~after:st.cfg.triggered_delay
           (fun () ->
             st.trigger <- None;
             advertise st))

(* Deterministic preference: shorter path, then smaller next hop. *)
let better (p1 : Addr.t list) (p2 : Addr.t list) =
  match Int.compare (List.length p1) (List.length p2) with
  | 0 -> compare p1 p2 < 0
  | c -> c < 0

let set_route st dst path via =
  match Hashtbl.find_opt st.table dst with
  | Some e ->
      if (not e.valid) || e.path <> path || e.via <> via then begin
        e.path <- path;
        e.via <- via;
        e.valid <- true;
        st.env.Routing.install dst via;
        arm_trigger st
      end
  | None ->
      Hashtbl.replace st.table dst { path; via; valid = true };
      st.env.Routing.install dst via;
      arm_trigger st

let invalidate st dst e =
  if e.valid then begin
    e.valid <- false;
    st.env.Routing.uninstall dst;
    arm_trigger st
  end

let neighbor_up st ~ifindex peer =
  Hashtbl.replace st.neighbors ifindex peer;
  (match Hashtbl.find_opt st.table peer with
  | Some e when e.valid && List.length e.path <= 1 -> ()
  | _ -> set_route st peer [ peer ] ifindex);
  Sublayer.Stats.incr st.c_sent;
  st.env.Routing.send ifindex (Pdu.encode_pv (vector_for st))

let neighbor_down st ~ifindex _peer =
  Hashtbl.remove st.neighbors ifindex;
  Hashtbl.iter (fun dst e -> if e.via = ifindex then invalidate st dst e) st.table

let on_pdu st ~ifindex pdu =
  match (Pdu.decode_pv pdu, Hashtbl.find_opt st.neighbors ifindex) with
  | None, _ -> Sublayer.Stats.incr st.c_undecodable
  | _, None -> ()
  | Some entries, Some neighbor ->
      Sublayer.Stats.incr st.c_received;
      List.iter
        (fun (dst, path) ->
          if not (Addr.equal dst st.env.Routing.self) then begin
            let candidate = neighbor :: path in
            (* structural loop prevention: never accept a path through
               ourselves, and bound path length *)
            if
              (not (List.exists (Addr.equal st.env.Routing.self) path))
              && List.length candidate <= st.cfg.max_path
            then begin
              match Hashtbl.find_opt st.table dst with
              | Some e when e.valid && e.via = ifindex ->
                  (* current next hop's view always supersedes *)
                  if e.path <> candidate then set_route st dst candidate ifindex
              | Some e when e.valid ->
                  if better candidate e.path then set_route st dst candidate ifindex
              | Some _ | None -> set_route st dst candidate ifindex
            end
            else begin
              Sublayer.Stats.incr st.c_loops_rejected;
              (* A looping/overlong path from our current next hop means
                 that route is gone. *)
              match Hashtbl.find_opt st.table dst with
              | Some e when e.valid && e.via = ifindex -> invalidate st dst e
              | _ -> ()
            end
          end)
        entries;
      (* implicit withdrawal: routes via this neighbor that were absent
         from the advertisement are gone *)
      let advertised = List.map fst entries in
      Hashtbl.iter
        (fun dst e ->
          if
            e.valid && e.via = ifindex
            && (not (List.exists (Addr.equal dst) advertised))
            && not (Addr.equal dst neighbor)
          then invalidate st dst e)
        st.table

let routes st =
  Hashtbl.fold (fun dst e acc -> if e.valid then (dst, e.via) :: acc else acc) st.table []
  |> List.sort compare

let factory ?(config = default_config) () =
  {
    Routing.protocol = "path-vector";
    make =
      (fun env ->
        let st =
          { env; cfg = config; table = Hashtbl.create 32; neighbors = Hashtbl.create 8;
            trigger = None; periodic = None;
            c_sent = Sublayer.Stats.counter env.Routing.stats "vectors_sent";
            c_received = Sublayer.Stats.counter env.Routing.stats "vectors_received";
            c_undecodable = Sublayer.Stats.counter env.Routing.stats "undecodable";
            c_loops_rejected = Sublayer.Stats.counter env.Routing.stats "loops_rejected" }
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
          Routing.rname = "path-vector";
          neighbor_up = (fun ~ifindex peer -> neighbor_up st ~ifindex peer);
          neighbor_down = (fun ~ifindex peer -> neighbor_down st ~ifindex peer);
          on_pdu = (fun ~ifindex pdu -> on_pdu st ~ifindex pdu);
          routes = (fun () -> routes st);
          stop =
            (fun () -> List.iter (Option.iter Sim.Engine.cancel) [ st.periodic; st.trigger ]);
        });
  }
