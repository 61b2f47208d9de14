type config = { interval : float; hold_multiplier : int }

let default_config = { interval = 1.0; hold_multiplier = 3 }

type event = Up of { ifindex : int; peer : Addr.t } | Down of { ifindex : int; peer : Addr.t }

type neighbor = { peer : Addr.t; mutable deadline : float }

type t = {
  engine : Sim.Engine.t;
  cfg : config;
  self : Addr.t;
  send : int -> string -> unit;
  notify : event -> unit;
  neighbors : (int, neighbor) Hashtbl.t;
  hello_timers : (int, Sim.Engine.handle) Hashtbl.t;
      (* the armed HELLO of each interface, replaced on each re-arm *)
  mutable sweep_timer : Sim.Engine.handle option;
  mutable stopped : bool;
  sent : Sublayer.Stats.counter;
  received : Sublayer.Stats.counter;
  ups : Sublayer.Stats.counter;
  downs : Sublayer.Stats.counter;
}

let create engine ?stats cfg ~self ~send ~notify =
  let sc =
    match stats with Some sc -> sc | None -> Sublayer.Stats.unregistered "hello"
  in
  let ups = Sublayer.Stats.counter sc "neighbor_ups" in
  let downs = Sublayer.Stats.counter sc "neighbor_downs" in
  let notify event =
    Sublayer.Stats.incr (match event with Up _ -> ups | Down _ -> downs);
    notify event
  in
  { engine; cfg; self; send; notify;
    neighbors = Hashtbl.create 8;
    hello_timers = Hashtbl.create 4; sweep_timer = None; stopped = false;
    sent = Sublayer.Stats.counter sc "hellos_sent";
    received = Sublayer.Stats.counter sc "hellos_received";
    ups; downs }

let hold t = t.cfg.interval *. Float.of_int t.cfg.hold_multiplier

(* One sweep timer expires dead neighbors; granularity = interval. *)
let rec arm_sweep t =
  if not t.stopped then
    t.sweep_timer <-
      Some
        (Sim.Engine.schedule t.engine ~after:t.cfg.interval (fun () ->
             let now = Sim.Engine.now t.engine in
             let dead =
               Hashtbl.fold
                 (fun ifindex n acc ->
                   if n.deadline < now then (ifindex, n.peer) :: acc else acc)
                 t.neighbors []
             in
             List.iter
               (fun (ifindex, peer) ->
                 Hashtbl.remove t.neighbors ifindex;
                 t.notify (Down { ifindex; peer }))
               dead;
             arm_sweep t))

let rec arm_hello t ifindex =
  if not t.stopped then
    Hashtbl.replace t.hello_timers ifindex
      (Sim.Engine.schedule t.engine ~after:t.cfg.interval (fun () ->
           Sublayer.Stats.incr t.sent;
           t.send ifindex (Pdu.encode_hello t.self);
           arm_hello t ifindex))

let add_interface t ifindex =
  if not (Hashtbl.mem t.hello_timers ifindex) then begin
    Sublayer.Stats.incr t.sent;
    t.send ifindex (Pdu.encode_hello t.self);
    arm_hello t ifindex;
    if Option.is_none t.sweep_timer then arm_sweep t
  end

let on_pdu t ~ifindex pdu =
  match Pdu.decode_hello pdu with
  | None -> ()
  | Some peer -> (
      Sublayer.Stats.incr t.received;
      let deadline = Sim.Engine.now t.engine +. hold t in
      match Hashtbl.find_opt t.neighbors ifindex with
      | Some n when Addr.equal n.peer peer -> n.deadline <- deadline
      | Some n ->
          (* The device at the end of the link changed identity. *)
          t.notify (Down { ifindex; peer = n.peer });
          Hashtbl.replace t.neighbors ifindex { peer; deadline };
          t.notify (Up { ifindex; peer })
      | None ->
          Hashtbl.replace t.neighbors ifindex { peer; deadline };
          t.notify (Up { ifindex; peer }))

let neighbors t =
  Hashtbl.fold (fun ifindex n acc -> (ifindex, n.peer) :: acc) t.neighbors []
  |> List.sort compare

let stop t =
  t.stopped <- true;
  Hashtbl.iter (fun _ h -> Sim.Engine.cancel h) t.hello_timers;
  Hashtbl.reset t.hello_timers;
  Option.iter Sim.Engine.cancel t.sweep_timer;
  t.sweep_timer <- None
