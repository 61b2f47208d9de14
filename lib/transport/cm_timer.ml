open Sublayer.Machine

let name = "cm-timer"
let scope = name

type phase =
  | Closed
  | Listening
  | Active of { isn_local : int; isn_remote : int option }
      (** [isn_remote = None] until the first segment from the peer. *)
  | Draining of { isn_local : int; isn_remote : int option }
      (** Local close requested; waiting out the quiet period. *)

type counters = {
  c_established : Sublayer.Stats.counter;
  c_stamped : Sublayer.Stats.counter;
  c_dropped : Sublayer.Stats.counter;
  c_idle_closes : Sublayer.Stats.counter;
}

type t = {
  cfg : Config.t;
  isn : Isn.t;
  local_port : int;
  remote_port : int;
  idle_timeout : float;
  ctrs : counters;
  sp : Sublayer.Span.ctx;
  phase : phase;
}

type up_req = Iface.cm_req
type up_ind = Iface.cm_ind
type down_req = Bitkit.Wirebuf.t
type down_ind = Bitkit.Slice.t
type timer = Idle

(* Resolved once per scope: every connection on a shared registry holds
   the same record. *)
let counters =
  Sublayer.Stats.memo (fun sc ->
      {
        c_established = Sublayer.Stats.counter sc "established";
        c_stamped = Sublayer.Stats.counter sc "segments_stamped";
        c_dropped = Sublayer.Stats.counter sc "segments_dropped";
        c_idle_closes = Sublayer.Stats.counter sc "idle_closes";
      })

let no_span = Sublayer.Span.disabled name

let initial ?stats ?span cfg ~isn ~local_port ~remote_port ~idle_timeout =
  let sc =
    match stats with Some sc -> sc | None -> Sublayer.Stats.unregistered scope
  in
  { cfg; isn; local_port; remote_port; idle_timeout;
    ctrs = Sublayer.Stats.memoised counters sc;
    sp = (match span with Some sp -> sp | None -> no_span);
    phase = Closed }

let stamp ~isn_local ~isn_remote payload =
  Down
    (Bitkit.Wirebuf.push payload ~owner:"cm"
       (Segment.write_cm
          { Segment.flags = Segment.no_cm_flags;
            isn_local;
            isn_remote = Option.value ~default:0 isn_remote }))

let touch t = Set_timer (Idle, t.idle_timeout)

let handle_up_req t (req : up_req) =
  match (req, t.phase) with
  | `Connect, Closed ->
      (* No handshake: pick a time-unique ISN and declare the connection
         usable immediately. The peer's ISN is learned from its first
         segment. *)
      let isn_local =
        t.isn.Isn.next ~local_port:t.local_port ~remote_port:t.remote_port
      in
      Sublayer.Stats.incr t.ctrs.c_established;
      Sublayer.Span.instant t.sp ~detail:"active open" "established";
      ( { t with phase = Active { isn_local; isn_remote = None } },
        [ Up (`Established (isn_local, 0)); touch t ] )
  | `Listen, Closed -> ({ t with phase = Listening }, [])
  | `Close, Active { isn_local; isn_remote } ->
      (* Nothing to send; state evaporates after the quiet period. *)
      ( { t with phase = Draining { isn_local; isn_remote } },
        [ Set_timer (Idle, t.idle_timeout) ] )
  | `Close, (Closed | Listening) -> ({ t with phase = Closed }, [ Up `Closed ])
  | `Close, Draining _ -> (t, [])
  | `Abort, _ ->
      (* Watson-style CM keeps no peer state worth resetting: evaporate
         immediately instead of waiting out the quiet period. *)
      ({ t with phase = Closed }, [ Cancel_timer Idle ])
  | `Pdu payload, (Active { isn_local; isn_remote } | Draining { isn_local; isn_remote })
    ->
      Sublayer.Stats.incr t.ctrs.c_stamped;
      (t, [ stamp ~isn_local ~isn_remote payload ])
  | `Pdu _, _ ->
      Sublayer.Stats.incr t.ctrs.c_dropped;
      (t, [ Note "data while closed dropped" ])
  | (`Connect | `Listen), _ -> (t, [ Note "open ignored in this phase" ])

let handle_down_ind t pdu =
  match Segment.decode_cm_slice pdu with
  | None ->
      Sublayer.Stats.incr t.ctrs.c_dropped;
      (t, [ Note "undecodable cm pdu dropped" ])
  | Some (cm, payload) -> (
      let peer_isn = cm.Segment.isn_local in
      let echoed = cm.Segment.isn_remote in
      match t.phase with
      | Listening when echoed = 0 ->
          (* First contact: adopt the initiator's identity, mint our own
             ISN, and hand RD the pair straight away. An initiator echoes
             0 until it has learned our ISN, so a segment echoing one is
             a straggler of an incarnation this end no longer holds, and
             is dropped below. *)
          let isn_local =
            t.isn.Isn.next ~local_port:t.local_port ~remote_port:t.remote_port
          in
          let t = { t with phase = Active { isn_local; isn_remote = Some peer_isn } } in
          Sublayer.Stats.incr t.ctrs.c_established;
          Sublayer.Span.instant t.sp ~detail:"first contact" "established";
          ( t,
            [ Up (`Established (isn_local, peer_isn)); Up (`Pdu payload); touch t ] )
      | Active { isn_local; isn_remote = None } when echoed = isn_local || echoed = 0 ->
          (* Learning the responder's ISN from its first segment. *)
          let t = { t with phase = Active { isn_local; isn_remote = Some peer_isn } } in
          Sublayer.Stats.incr t.ctrs.c_established;
          Sublayer.Span.instant t.sp ~detail:"peer isn learned" "established";
          ( t,
            [ Up (`Established (isn_local, peer_isn)); Up (`Pdu payload); touch t ] )
      | Active { isn_local; isn_remote = Some r } when peer_isn = r && echoed = isn_local
        ->
          (t, [ Up (`Pdu payload); touch t ])
      | Draining { isn_local; isn_remote = Some r } when peer_isn = r && echoed = isn_local
        ->
          (* Still acking the peer's stragglers during the quiet period. *)
          (t, [ Up (`Pdu payload); Set_timer (Idle, t.idle_timeout) ])
      | _ ->
          Sublayer.Stats.incr t.ctrs.c_dropped;
          (t, [ Note "segment with stale identity dropped (delta-t trust)" ]))

let handle_timer t Idle =
  match t.phase with
  | Active _ ->
      (* Silence for a full idle period: the peer is gone (or merely
         quiet — Watson's trade-off). *)
      Sublayer.Stats.incr t.ctrs.c_idle_closes;
      Sublayer.Span.instant t.sp "idle_close";
      ({ t with phase = Closed }, [ Up `Peer_fin; Up `Closed ])
  | Draining _ -> ({ t with phase = Closed }, [ Up `Closed ])
  | Closed | Listening -> (t, [])
