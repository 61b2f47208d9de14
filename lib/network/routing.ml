open Sublayer.Machine

type ind = Install of Addr.t * int | Uninstall of Addr.t | Data of Packet.t
type timer = Periodic | Trigger

module type S = sig
  include
    Sublayer.Compose.SUBLAYER
      with type up_req = int * Packet.frame
       and type up_ind = ind
       and type down_req = int * Packet.frame
       and type down_ind = Hello.event
       and type timer = timer

  val initial : Sublayer.Stats.scope -> Addr.t -> t
end

type factory = (module S)

type port = {
  mutable acts : (ind, int * Packet.frame, timer) action list;  (* newest first *)
  installed : Sublayer.Stats.counter;
  uninstalled : Sublayer.Stats.counter;
}

let port sc =
  { acts = [];
    installed = Sublayer.Stats.counter sc "routes_installed";
    uninstalled = Sublayer.Stats.counter sc "routes_uninstalled" }

let send p ifindex pdu = p.acts <- Down (ifindex, Packet.Routing_pdu pdu) :: p.acts
let set_timer p tm after = p.acts <- Set_timer (tm, after) :: p.acts

let install p dst ifindex =
  Sublayer.Stats.incr p.installed;
  p.acts <- Up (Install (dst, ifindex)) :: p.acts

let uninstall p dst =
  Sublayer.Stats.incr p.uninstalled;
  p.acts <- Up (Uninstall dst) :: p.acts

module type PROTOCOL = sig
  val name : string

  type t

  val initial : Sublayer.Stats.scope -> Addr.t -> t
  val port : t -> port
  val start : t -> unit
  val neighbor_up : t -> ifindex:int -> Addr.t -> unit
  val neighbor_down : t -> ifindex:int -> Addr.t -> unit
  val on_pdu : t -> ifindex:int -> string -> unit
  val on_timer : t -> timer -> unit
end

module Make (P : PROTOCOL) = struct
  include P

  let scope = name

  type up_req = int * Packet.frame
  type up_ind = ind
  type down_req = int * Packet.frame
  type down_ind = Hello.event
  type nonrec timer = timer

  let flush t =
    let p = port t in
    let acts = List.rev p.acts in
    p.acts <- [];
    (t, acts)

  (* Forwarding's packets pass straight down. *)
  let handle_up_req t req = (t, [ Down req ])

  let handle_down_ind t = function
    | Hello.Received (_, Packet.Data packet) -> (t, [ Up (Data packet) ])
    | Hello.Received (ifindex, Packet.Routing_pdu pdu) -> on_pdu t ~ifindex pdu; flush t
    | Hello.Received (_, Packet.Hello_pdu _) -> (t, [])
    | Hello.Started -> start t; flush t
    | Hello.Neighbor_up (ifindex, peer) -> neighbor_up t ~ifindex peer; flush t
    | Hello.Neighbor_down (ifindex, peer) -> neighbor_down t ~ifindex peer; flush t

  let handle_timer t tm =
    on_timer t tm;
    flush t
end
