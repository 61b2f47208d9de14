module Machine = Sublayer.Machine

module P_osr_rd = Machine.Probe (struct
  type req = Iface.rd_req
  type ind = Iface.rd_ind

  let name = "mon"
end)

module P_rd_cm = Machine.Probe (struct
  type req = Iface.cm_req
  type ind = Iface.cm_ind

  let name = "mon"
end)

module P_pdu = Machine.Probe (struct
  type req = Bitkit.Wirebuf.t
  type ind = Bitkit.Slice.t

  let name = "mon"
end)

(* Shared no-op closures: an unmonitored probe carries these. *)
let nop _ = ()

(* A probe with no monitor and no allocation cells observes nothing and
   charges nothing, so every such endpoint shares its interface's inert
   probe, allocates none, and its seam calls nothing. *)
let inert alloc mon = Option.is_none mon && Sublayer.Alloc.no_cells alloc

(* Resolve the alphabet ids once at attach time; the per-event closures
   then do a constructor match and one [observe] call. *)

let observe_osr_rd spec mon ~conn =
  match mon with
  | None -> ((nop : Iface.rd_req -> unit), (nop : Iface.rd_ind -> unit))
  | Some reg ->
    let inst = Monitor.Runtime.attach reg ~key:conn spec in
    let idd m = Monitor.Spec.msg_id spec Monitor.Spec.Down m
    and idu m = Monitor.Spec.msg_id spec Monitor.Spec.Up m in
    let connect = idd "connect" and listen = idd "listen"
    and close = idd "close" and transmit = idd "transmit"
    and set_block = idd "set_block"
    and announce_block = idd "announce_block"
    and established = idu "established" and segment = idu "segment"
    and acked = idu "acked" and loss = idu "loss"
    and peer_fin = idu "peer_fin" and closed = idu "closed"
    and reset = idu "reset" and aborted = idu "aborted" in
    let ob mid ~a ~b = Monitor.Runtime.observe inst mid ~a ~b in
    let obs_req : Iface.rd_req -> unit = function
      | `Connect -> ob connect ~a:0 ~b:0
      | `Listen -> ob listen ~a:0 ~b:0
      | `Close -> ob close ~a:0 ~b:0
      | `Transmit (off, len, _) -> ob transmit ~a:off ~b:len
      | `Set_block s -> ob set_block ~a:(String.length s) ~b:0
      | `Announce_block s -> ob announce_block ~a:(String.length s) ~b:0
    and obs_ind : Iface.rd_ind -> unit = function
      | `Established -> ob established ~a:0 ~b:0
      | `Segment (off, pdu) -> ob segment ~a:off ~b:(Bitkit.Slice.length pdu)
      | `Acked (upto, _, _) -> ob acked ~a:upto ~b:0
      | `Loss _ -> ob loss ~a:0 ~b:0
      | `Peer_fin -> ob peer_fin ~a:0 ~b:0
      | `Closed -> ob closed ~a:0 ~b:0
      | `Reset -> ob reset ~a:0 ~b:0
      | `Aborted -> ob aborted ~a:0 ~b:0
    in
    (obs_req, obs_ind)

let stream_rd spec ?alloc mon ~conn =
  if inert alloc mon then P_osr_rd.inert
  else
    let obs_req, obs_ind = observe_osr_rd spec mon ~conn in
    let obs_req, obs_ind = Sublayer.Alloc.wrap_taps alloc obs_req obs_ind in
    { P_osr_rd.obs_req; obs_ind }

let osr_rd = stream_rd Monitor.Specs.osr_rd
let msg_rd = stream_rd (Monitor.Specs.stream_rd ~upper:"msg")

let observe_rd_cm mon ~conn =
  match mon with
  | None -> ((nop : Iface.cm_req -> unit), (nop : Iface.cm_ind -> unit))
  | Some reg ->
    let spec = Monitor.Specs.rd_cm in
    let inst = Monitor.Runtime.attach reg ~key:conn spec in
    let idd m = Monitor.Spec.msg_id spec Monitor.Spec.Down m
    and idu m = Monitor.Spec.msg_id spec Monitor.Spec.Up m in
    let connect = idd "connect" and listen = idd "listen"
    and close = idd "close" and abort = idd "abort"
    and dpdu = idd "pdu" and established = idu "established"
    and updu = idu "pdu" and peer_fin = idu "peer_fin"
    and closed = idu "closed" and reset = idu "reset" in
    let ob mid ~a ~b = Monitor.Runtime.observe inst mid ~a ~b in
    let obs_req : Iface.cm_req -> unit = function
      | `Connect -> ob connect ~a:0 ~b:0
      | `Listen -> ob listen ~a:0 ~b:0
      | `Close -> ob close ~a:0 ~b:0
      | `Abort -> ob abort ~a:0 ~b:0
      | `Pdu buf -> ob dpdu ~a:(Bitkit.Wirebuf.length buf) ~b:0
    and obs_ind : Iface.cm_ind -> unit = function
      | `Established (il, ir) -> ob established ~a:il ~b:ir
      | `Pdu s -> ob updu ~a:(Bitkit.Slice.length s) ~b:0
      | `Peer_fin -> ob peer_fin ~a:0 ~b:0
      | `Closed -> ob closed ~a:0 ~b:0
      | `Reset -> ob reset ~a:0 ~b:0
    in
    (obs_req, obs_ind)

let rd_cm ?alloc mon ~conn =
  if inert alloc mon then P_rd_cm.inert
  else
    let obs_req, obs_ind = observe_rd_cm mon ~conn in
    let obs_req, obs_ind = Sublayer.Alloc.wrap_taps alloc obs_req obs_ind in
    { P_rd_cm.obs_req; obs_ind }

let spec_cm_dm =
  Monitor.Specs.opaque ~name:"cm-dm" ~upper:"cm" ~lower:"dm" ~min_up:1 ()

let spec_cm_rec =
  Monitor.Specs.opaque ~name:"cm-rec" ~upper:"cm" ~lower:"rec" ~min_up:1 ()

let spec_rec_dm =
  Monitor.Specs.opaque ~name:"rec-dm" ~upper:"rec" ~lower:"dm" ~min_up:1 ()

let observe_pdu spec mon ~conn =
  match mon with
  | None -> ((nop : Bitkit.Wirebuf.t -> unit), (nop : Bitkit.Slice.t -> unit))
  | Some reg ->
      let inst = Monitor.Runtime.attach reg ~key:conn spec in
      let down = Monitor.Spec.msg_id spec Monitor.Spec.Down "pdu"
      and up = Monitor.Spec.msg_id spec Monitor.Spec.Up "pdu" in
      let obs_req buf =
        Monitor.Runtime.observe inst down ~a:(Bitkit.Wirebuf.length buf) ~b:0
      and obs_ind s =
        Monitor.Runtime.observe inst up ~a:(Bitkit.Slice.length s) ~b:0
      in
      (obs_req, obs_ind)

let pdu spec ?alloc mon ~conn =
  if inert alloc mon then P_pdu.inert
  else
    let obs_req, obs_ind = observe_pdu spec mon ~conn in
    let obs_req, obs_ind = Sublayer.Alloc.wrap_taps alloc obs_req obs_ind in
    { P_pdu.obs_req; obs_ind }

let cm_dm = pdu spec_cm_dm
let cm_rec = pdu spec_cm_rec
let rec_dm = pdu spec_rec_dm

let app mon ~conn =
  match mon with
  | None -> (nop, nop)
  | Some reg ->
      let spec = Monitor.Specs.app in
      let inst = Monitor.Runtime.attach reg ~key:conn spec in
      let idd m = Monitor.Spec.msg_id spec Monitor.Spec.Down m
      and idu m = Monitor.Spec.msg_id spec Monitor.Spec.Up m in
      let connect = idd "connect" and listen = idd "listen"
      and write = idd "write" and read = idd "read"
      and close = idd "close" and established = idu "established"
      and data = idu "data" and peer_closed = idu "peer_closed"
      and closed = idu "closed" and reset = idu "reset"
      and aborted = idu "aborted" in
      let ob mid ~a = Monitor.Runtime.observe inst mid ~a ~b:0 in
      let obs_req : Iface.app_req -> unit = function
        | `Connect -> ob connect ~a:0
        | `Listen -> ob listen ~a:0
        | `Write s -> ob write ~a:(String.length s)
        | `Read n -> ob read ~a:n
        | `Close -> ob close ~a:0
      and obs_ind : Iface.app_ind -> unit = function
        | `Established -> ob established ~a:0
        | `Data s -> ob data ~a:(Bitkit.Slice.length s)
        | `Peer_closed -> ob peer_closed ~a:0
        | `Closed -> ob closed ~a:0
        | `Reset -> ob reset ~a:0
        | `Aborted -> ob aborted ~a:0
      in
      (obs_req, obs_ind)
