module Tap = Sublayer.Compose.Tap

module P_osr_rd = Tap (struct
  type req = Iface.rd_req
  type ind = Iface.rd_ind
end)

module P_rd_cm = Tap (struct
  type req = Iface.cm_req
  type ind = Iface.cm_ind
end)

module P_pdu = Tap (struct
  type req = Bitkit.Wirebuf.t
  type ind = Bitkit.Slice.t
end)

(* Resolve the alphabet ids once at attach time; the per-event closures
   then do a constructor match and one [observe] call. *)

let stream_rd spec =
  P_osr_rd.make (fun reg ~conn ->
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
    (obs_req, obs_ind))

let osr_rd = stream_rd Monitor.Specs.osr_rd
let msg_rd = stream_rd (Monitor.Specs.stream_rd ~upper:"msg")

let rd_cm =
  P_rd_cm.make (fun reg ~conn ->
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
    (obs_req, obs_ind))

let pdu ~name ~upper ~lower =
  P_pdu.opaque
    (Monitor.Specs.opaque ~name ~upper ~lower ~min_up:1 ())
    ~req_len:Bitkit.Wirebuf.length ~ind_len:Bitkit.Slice.length

let cm_dm = pdu ~name:"cm-dm" ~upper:"cm" ~lower:"dm"
let cm_rec = pdu ~name:"cm-rec" ~upper:"cm" ~lower:"rec"
let rec_dm = pdu ~name:"rec-dm" ~upper:"rec" ~lower:"dm"

let app mon ~conn =
  match mon with
  | None -> (ignore, ignore)
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
