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
  cfg : config;
  self : Addr.t;
  port : Routing.port;
  table : (Addr.t, entry) Hashtbl.t;
  neighbors : (int, Addr.t) Hashtbl.t;
  mutable triggered : bool;
      (** a triggered update is armed; it batches every change made
          before it fires *)
  c_sent : Sublayer.Stats.counter;
  c_received : Sublayer.Stats.counter;
  c_undecodable : Sublayer.Stats.counter;
  c_loops_rejected : Sublayer.Stats.counter;
}

(* Our advertisement: ourselves (the empty path: "I am the destination")
   plus every valid route's path as-is; the receiver prepends us. *)
let vector_for st =
  (st.self, [])
  :: Hashtbl.fold
       (fun dst e acc -> if e.valid then (dst, e.path) :: acc else acc)
       st.table []

let advertise st =
  let pdu = Pdu.encode_pv (vector_for st) in
  Hashtbl.iter
    (fun i _ ->
      Sublayer.Stats.incr st.c_sent;
      Routing.send st.port i pdu)
    st.neighbors

let arm_trigger st =
  if not st.triggered then begin
    st.triggered <- true;
    Routing.set_timer st.port Routing.Trigger st.cfg.triggered_delay
  end

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
        Routing.install st.port dst via;
        arm_trigger st
      end
  | None ->
      Hashtbl.replace st.table dst { path; via; valid = true };
      Routing.install st.port dst via;
      arm_trigger st

let invalidate st dst e =
  if e.valid then begin
    e.valid <- false;
    Routing.uninstall st.port dst;
    arm_trigger st
  end

let neighbor_up st ~ifindex peer =
  Hashtbl.replace st.neighbors ifindex peer;
  (match Hashtbl.find_opt st.table peer with
  | Some e when e.valid && List.length e.path <= 1 -> ()
  | _ -> set_route st peer [ peer ] ifindex);
  Sublayer.Stats.incr st.c_sent;
  Routing.send st.port ifindex (Pdu.encode_pv (vector_for st))

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
          if not (Addr.equal dst st.self) then begin
            let candidate = neighbor :: path in
            (* structural loop prevention: never accept a path through
               ourselves, and bound path length *)
            if
              (not (List.exists (Addr.equal st.self) path))
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

let start st = Routing.set_timer st.port Routing.Periodic st.cfg.advertise_interval

let on_timer st = function
  | Routing.Periodic ->
      advertise st;
      start st
  | Routing.Trigger ->
      st.triggered <- false;
      advertise st

let factory ?(config = default_config) () =
  (module Routing.Make (struct
    let name = "path-vector"

    type t = state

    let initial sc self =
      { cfg = config; self; port = Routing.port sc; table = Hashtbl.create 32;
        neighbors = Hashtbl.create 8; triggered = false;
        c_sent = Sublayer.Stats.counter sc "vectors_sent";
        c_received = Sublayer.Stats.counter sc "vectors_received";
        c_undecodable = Sublayer.Stats.counter sc "undecodable";
        c_loops_rejected = Sublayer.Stats.counter sc "loops_rejected" }

    let port st = st.port
    let start, neighbor_up, neighbor_down, on_pdu, on_timer =
      (start, neighbor_up, neighbor_down, on_pdu, on_timer)
  end) : Routing.S)
