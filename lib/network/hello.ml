open Sublayer.Machine

let name = "hello"
let scope = "hello"

(* Seconds between HELLOs; a neighbor is declared down after three
   intervals without one. *)
let interval = 1.0
let hold = 3. *. interval

type wire = Start | Attach of int | Frame of int * Packet.frame

type event =
  | Started | Neighbor_up of int * Addr.t | Neighbor_down of int * Addr.t
  | Received of int * Packet.frame

type neighbor = { peer : Addr.t; mutable deadline : float }

type t = {
  self : Addr.t;
  now : unit -> float;
  neighbors : (int, neighbor) Hashtbl.t;
  mutable sweeping : bool;  (* the sweep is armed, from the first interface on *)
  sent : Sublayer.Stats.counter;
  received : Sublayer.Stats.counter;
  ups : Sublayer.Stats.counter;
  downs : Sublayer.Stats.counter;
}

type up_req = int * Packet.frame
type up_ind = event
type down_req = int * Packet.frame
type down_ind = wire

(* A HELLO per interface every interval; one sweep expires dead
   neighbors, so the hold granularity is the interval. *)
type timer = Beacon of int | Sweep

let initial ?stats ~now self =
  let sc =
    match stats with Some sc -> sc | None -> Sublayer.Stats.unregistered scope
  in
  { self; now; neighbors = Hashtbl.create 8; sweeping = false;
    sent = Sublayer.Stats.counter sc "hellos_sent";
    received = Sublayer.Stats.counter sc "hellos_received";
    ups = Sublayer.Stats.counter sc "neighbor_ups";
    downs = Sublayer.Stats.counter sc "neighbor_downs" }

let up t ifindex peer = Sublayer.Stats.incr t.ups; Up (Neighbor_up (ifindex, peer))
let down t ifindex peer = Sublayer.Stats.incr t.downs; Up (Neighbor_down (ifindex, peer))

let beacon t ifindex =
  Sublayer.Stats.incr t.sent;
  [ Down (ifindex, Packet.Hello_pdu (Pdu.encode_hello t.self));
    Set_timer (Beacon ifindex, interval) ]

let on_pdu t ifindex pdu =
  match Pdu.decode_hello pdu with
  | None -> []
  | Some peer -> (
      Sublayer.Stats.incr t.received;
      let deadline = t.now () +. hold in
      match Hashtbl.find_opt t.neighbors ifindex with
      | Some n when Addr.equal n.peer peer ->
          n.deadline <- deadline;
          []
      | Some n ->
          (* The device at the end of the link changed identity. *)
          Hashtbl.replace t.neighbors ifindex { peer; deadline };
          [ down t ifindex n.peer; up t ifindex peer ]
      | None ->
          Hashtbl.replace t.neighbors ifindex { peer; deadline };
          [ up t ifindex peer ])

(* Route computation's PDUs and forwarding's packets pass straight
   down; this sublayer reads none of them. *)
let handle_up_req t req = (t, [ Down req ])

let handle_down_ind t = function
  | Start -> (t, [ Up Started ])
  | Attach ifindex ->
      let sweep = if t.sweeping then [] else [ Set_timer (Sweep, interval) ] in
      t.sweeping <- true;
      (t, beacon t ifindex @ sweep)
  | Frame (ifindex, Packet.Hello_pdu pdu) -> (t, on_pdu t ifindex pdu)
  | Frame (ifindex, frame) -> (t, [ Up (Received (ifindex, frame)) ])

let handle_timer t = function
  | Beacon ifindex -> (t, beacon t ifindex)
  | Sweep ->
      let now = t.now () in
      let dead =
        Hashtbl.fold
          (fun ifindex n acc -> if n.deadline < now then (ifindex, n.peer) :: acc else acc)
          t.neighbors []
      in
      List.iter (fun (ifindex, _) -> Hashtbl.remove t.neighbors ifindex) dead;
      (t, List.map (fun (ifindex, peer) -> down t ifindex peer) dead
          @ [ Set_timer (Sweep, interval) ])

let neighbors t =
  Hashtbl.fold (fun ifindex n acc -> (ifindex, n.peer) :: acc) t.neighbors []
  |> List.sort compare
