open Sublayer.Machine

let name = "rd"

type stats = {
  mutable segments_sent : int;
  mutable retransmits : int;
  mutable fast_retransmits : int;
  mutable timeouts : int;
  mutable acks_only : int;
  mutable dup_segments : int;
}

type counters = {
  c_segments_sent : Sublayer.Stats.counter;
  c_retransmits : Sublayer.Stats.counter;
  c_fast_retransmits : Sublayer.Stats.counter;
  c_timeouts : Sublayer.Stats.counter;
  c_acks_only : Sublayer.Stats.counter;
  c_dup_segments : Sublayer.Stats.counter;
}

let counters_in sc =
  {
    c_segments_sent = Sublayer.Stats.counter sc "segments_sent";
    c_retransmits = Sublayer.Stats.counter sc "retransmits";
    c_fast_retransmits = Sublayer.Stats.counter sc "fast_retransmits";
    c_timeouts = Sublayer.Stats.counter sc "timeouts";
    c_acks_only = Sublayer.Stats.counter sc "acks_only";
    c_dup_segments = Sublayer.Stats.counter sc "dup_segments";
  }

type sent = {
  s_off : int;
  s_len : int;
  s_pdu : Bitkit.Wirebuf.t;  (* OSR's wirebuf; RD pushes its header per (re)send *)
  s_sent_at : float;
  s_retx : bool;
  s_sacked : bool;
}

type conn = {
  isn_local : int;
  isn_remote : int;
  (* sender *)
  sndq : sent list;  (* ascending offset *)
  snd_acked : int;
  snd_max : int;     (* high-water mark of submitted stream bytes *)
  dup_acks : int;
  recover : int;     (* no second fast retransmit until acked past this *)
  srtt : float option;
  rttvar : float;
  rto : float;
  backoffs : int;        (* consecutive RTO firings without cumulative progress *)
  last_progress : float; (* when the cumulative ack last advanced (or data was queued) *)
  block : string;    (* OSR's current header block, opaque *)
  (* receiver *)
  rcv : Ranges.t;
  ack_pending : bool;  (* a delayed ack is owed *)
}

type t = {
  cfg : Config.t;
  now : unit -> float;
  ctrs : counters;
  sp : Sublayer.Span.ctx;
  conn : conn option;
}

type up_req = Iface.rd_req
type up_ind = Iface.rd_ind
type down_req = Iface.cm_req
type down_ind = Iface.cm_ind
type timer = Rto | Ack_delay

let initial ?stats ?span cfg ~now =
  let sc =
    match stats with Some sc -> sc | None -> Sublayer.Stats.unregistered "rd"
  in
  let sp =
    match span with Some sp -> sp | None -> Sublayer.Span.disabled name
  in
  { cfg; now; ctrs = counters_in sc; sp; conn = None }

(* The flight span of a segment is correlated across hosts by a key both
   ends can compute: the connection's ISN pair (swapped on the receiver)
   plus the stream offset. No wire format changes. *)
let xh_key ~isn_local ~isn_remote offset =
  Printf.sprintf "xh:%d:%d:%d" isn_local isn_remote offset

let fkey offset = "f:" ^ string_of_int offset

(* Fresh snapshot of the counters in the legacy record shape. *)
let stats t =
  let v c = Sublayer.Stats.value c in
  { segments_sent = v t.ctrs.c_segments_sent;
    retransmits = v t.ctrs.c_retransmits;
    fast_retransmits = v t.ctrs.c_fast_retransmits;
    timeouts = v t.ctrs.c_timeouts;
    acks_only = v t.ctrs.c_acks_only;
    dup_segments = v t.ctrs.c_dup_segments }

let outstanding t =
  match t.conn with None -> 0 | Some c -> c.snd_max - c.snd_acked

let srtt t = match t.conn with None -> None | Some c -> c.srtt
let rto t = match t.conn with None -> t.cfg.Config.rto_init | Some c -> c.rto

(* Absolute sequence of a stream offset (SYN consumes one number). *)
let abs_seq isn offset = (isn + 1 + offset) land 0xFFFFFFFF

let rcv_sacks t c =
  if not t.cfg.Config.use_sack then []
  else begin
    let cum = Ranges.cumulative c.rcv in
    Ranges.beyond c.rcv cum
    |> List.filteri (fun i _ -> i < 3)
    |> List.map (fun (a, b) ->
           { Segment.sack_start = abs_seq c.isn_remote a;
             sack_end = abs_seq c.isn_remote b })
  end

(* Every outgoing segment carries our cumulative ack and SACK view. *)
let data_segment t c sent =
  { Segment.seq = abs_seq c.isn_local sent.s_off;
    ack = abs_seq c.isn_remote (Ranges.cumulative c.rcv);
    len = sent.s_len;
    has_data = true;
    has_ack = true;
    sacks = rcv_sacks t c }

let pure_ack t c =
  { Segment.seq = 0;
    ack = abs_seq c.isn_remote (Ranges.cumulative c.rcv);
    len = 0;
    has_data = false;
    has_ack = true;
    sacks = rcv_sacks t c }

(* [push] is persistent, so stamping a fresh RD header on the stored OSR
   wirebuf at every (re)transmit costs one cons and never touches the
   payload; the header is recomputed so retransmits carry the current
   cumulative ack and SACK view. *)
let send_data t c sent =
  Sublayer.Stats.incr t.ctrs.c_segments_sent;
  Down
    (`Pdu
      (Bitkit.Wirebuf.push sent.s_pdu ~owner:"rd"
         (Segment.write_rd (data_segment t c sent))))

let send_ack t c =
  Sublayer.Stats.incr t.ctrs.c_acks_only;
  Down
    (`Pdu
      (Bitkit.Wirebuf.push
         (Bitkit.Wirebuf.of_string c.block)
         ~owner:"rd"
         (Segment.write_rd (pure_ack t c))))

let update_rtt c sample cfg =
  let srtt, rttvar =
    match c.srtt with
    | None -> (sample, sample /. 2.)
    | Some srtt ->
        let err = sample -. srtt in
        let srtt = srtt +. (0.125 *. err) in
        let rttvar = c.rttvar +. (0.25 *. (Float.abs err -. c.rttvar)) in
        (srtt, rttvar)
  in
  let rto =
    Float.min cfg.Config.rto_max
      (Float.max cfg.Config.rto_min (srtt +. (4. *. rttvar)))
  in
  { c with srtt = Some srtt; rttvar; rto }

(* ETIMEDOUT semantics: no cumulative progress for [give_up_after]
   seconds, or [max_retries] consecutive backoffs, aborts the
   connection. The RTO delay is clamped to the deadline so the abort
   lands within [give_up_after] rather than one backed-off RTO late. *)
let deadline t c = c.last_progress +. t.cfg.Config.give_up_after

let arm_rto t c =
  Set_timer (Rto, Float.min c.rto (Float.max 0.001 (deadline t c -. t.now ())))

let give_up t c =
  c.backoffs >= t.cfg.Config.max_retries || t.now () >= deadline t c

let with_conn t f =
  match t.conn with
  | None -> (t, [ Note "no connection" ])
  | Some c -> f c

let handle_up_req t (req : up_req) =
  match req with
  | `Connect -> (t, [ Down `Connect ])
  | `Listen -> (t, [ Down `Listen ])
  | `Close -> (t, [ Down `Close ])
  | `Set_block block ->
      (match t.conn with
      | None -> (t, [])
      | Some c -> ({ t with conn = Some { c with block } }, []))
  | `Announce_block block ->
      (match t.conn with
      | None -> (t, [])
      | Some c ->
          let c = { c with block } in
          ({ t with conn = Some c }, [ send_ack t c ]))
  | `Transmit (offset, len, osr_pdu) ->
      with_conn t (fun c ->
          let sent =
            { s_off = offset; s_len = len; s_pdu = osr_pdu; s_sent_at = t.now ();
              s_retx = false; s_sacked = false }
          in
          if Sublayer.Span.active t.sp then begin
            (* OSR handed us this offset's trace under the local key;
               the flight span runs until the peer RD delivers it. *)
            let trace =
              Sublayer.Span.take_local t.sp ("off:" ^ string_of_int offset)
            in
            Sublayer.Span.open_ t.sp ~key:(fkey offset) ~trace "flight";
            Sublayer.Span.bind t.sp
              (xh_key ~isn_local:c.isn_local ~isn_remote:c.isn_remote offset)
              (Sublayer.Span.id_of t.sp ~key:(fkey offset))
          end;
          let act = send_data t c sent in
          let was_idle = c.sndq = [] in
          let c =
            { c with sndq = c.sndq @ [ sent ];
              snd_max = max c.snd_max (offset + len);
              (* an idle sender's give-up clock starts when data is
                 queued, not at establishment — else the first write
                 after a long quiet period aborts spuriously *)
              last_progress = (if was_idle then t.now () else c.last_progress);
              backoffs = (if was_idle then 0 else c.backoffs);
              (* the data segment piggybacks our cumulative ack *)
              ack_pending = false }
          in
          let acts = if was_idle then [ act; arm_rto t c ] else [ act ] in
          let acts = if t.cfg.Config.delayed_ack then Cancel_timer Ack_delay :: acts else acts in
          ({ t with conn = Some c }, acts))

(* --- Receiver side: an arriving data segment. --- *)
let handle_data t c (rd : Segment.rd) osr_pdu =
  let rcv_cum = Ranges.cumulative c.rcv in
  let seq_abs =
    Sublayer.Seqspace.reconstruct Iface.seq32 ~reference:(abs_seq c.isn_remote rcv_cum)
      rd.Segment.seq
  in
  let offset = seq_abs - c.isn_remote - 1 in
  (* RD cannot know the upper sublayer's header size (T3), so the only
     sanity check available is that the claimed extent fits in the PDU. *)
  if offset < 0 || rd.Segment.len > Bitkit.Slice.length osr_pdu then
    (c, [ Note "implausible data segment dropped" ])
  else begin
    let before = Ranges.cumulative c.rcv in
    let rcv, fresh = Ranges.add c.rcv offset (offset + rd.Segment.len) in
    let c = { c with rcv } in
    let advanced = Ranges.cumulative rcv > before in
    if fresh then begin
      if Sublayer.Span.active t.sp then begin
        (* Close the sender's flight span here, at delivery — the span
           measures network sojourn, not ack round-trip — and bind the
           trace locally for OSR's reassembly span. *)
        let id =
          Sublayer.Span.take t.sp
            (xh_key ~isn_local:c.isn_remote ~isn_remote:c.isn_local offset)
        in
        let trace = Sublayer.Span.close_id t.sp ~id ~detail:"delivered" () in
        if trace <> 0 then
          Sublayer.Span.bind_local t.sp ("off:" ^ string_of_int offset) trace
      end;
      (* Delayed acks apply only to in-order data; gaps must be acked
         immediately (they are the sender's dupack signal), and at most
         one ack may be owed at a time (ack every second segment). *)
      if t.cfg.Config.delayed_ack && advanced && not c.ack_pending then
        ( { c with ack_pending = true },
          [ Up (`Segment (offset, osr_pdu));
            Set_timer (Ack_delay, t.cfg.Config.ack_delay) ] )
      else
        ( { c with ack_pending = false },
          [ Up (`Segment (offset, osr_pdu)); send_ack t c; Cancel_timer Ack_delay ] )
    end
    else begin
      Sublayer.Stats.incr t.ctrs.c_dup_segments;
      ({ c with ack_pending = false }, [ send_ack t c; Cancel_timer Ack_delay ])
    end
  end

(* --- Sender side: the ack field of an arriving segment. --- *)
let handle_ack t c (rd : Segment.rd) osr_pdu =
  let acked_off =
    Sublayer.Seqspace.reconstruct Iface.seq32
      ~reference:(abs_seq c.isn_local c.snd_acked) rd.Segment.ack
    - c.isn_local - 1
  in
  (* SACK processing: mark covered segments. *)
  let c =
    if rd.Segment.sacks = [] then c
    else begin
      let sacked s =
        s.s_sacked
        || List.exists
             (fun b ->
               let lo =
                 Sublayer.Seqspace.reconstruct Iface.seq32
                   ~reference:(abs_seq c.isn_local s.s_off) b.Segment.sack_start
                 - c.isn_local - 1
               in
               let hi = lo + ((b.Segment.sack_end - b.Segment.sack_start) land 0xFFFFFFFF) in
               lo <= s.s_off && s.s_off + s.s_len <= hi)
             rd.Segment.sacks
      in
      { c with sndq = List.map (fun s -> { s with s_sacked = sacked s }) c.sndq }
    end
  in
  if acked_off > c.snd_acked && acked_off <= c.snd_max then begin
    (* New data acknowledged: [sndq] ascends by offset, so the acked
       segments are a prefix of it. *)
    let rec split newly = function
      | s :: rest when s.s_off + s.s_len <= acked_off -> split (s :: newly) rest
      | remaining -> (List.rev newly, remaining)
    in
    let newly, remaining = split [] c.sndq in
    if Sublayer.Span.active t.sp then
      List.iter
        (fun s ->
          (* Usually a no-op forget: the receiver already closed the span
             at delivery. It only finishes here (duration = full RTT)
             when the two ends do not share a tracer. *)
          Sublayer.Span.close t.sp ~key:(fkey s.s_off) ~detail:"acked" ();
          Sublayer.Span.unbind t.sp
            (xh_key ~isn_local:c.isn_local ~isn_remote:c.isn_remote s.s_off))
        newly;
    let rtt_sample =
      List.fold_left
        (fun acc s -> if s.s_retx then acc else Some (t.now () -. s.s_sent_at))
        None newly
    in
    let c =
      match rtt_sample with
      | Some s -> update_rtt c s t.cfg
      | None ->
          (* Karn's rule gives no sample from retransmitted segments, but
             a cumulative advance still clears exponential backoff —
             otherwise serial loss recovery crawls at rto_max. *)
          let base =
            match c.srtt with
            | Some srtt -> srtt +. (4. *. c.rttvar)
            | None -> t.cfg.Config.rto_init
          in
          { c with rto = Float.min t.cfg.Config.rto_max (Float.max t.cfg.Config.rto_min base) }
    in
    let c =
      { c with sndq = remaining; snd_acked = acked_off; dup_acks = 0;
        backoffs = 0; last_progress = t.now () }
    in
    let timer_act = if remaining = [] then Cancel_timer Rto else arm_rto t c in
    (* The timer action must precede the [`Acked] indication: delivering
       it makes OSR release new segments synchronously, and those arm the
       RTO — a stale Cancel_timer sequenced afterwards would silently
       disarm it and deadlock the transfer. *)
    (c, [ timer_act; Up (`Acked (acked_off, osr_pdu, rtt_sample)) ])
  end
  else if acked_off = c.snd_acked && c.sndq <> [] then begin
    (* Duplicate ack. Once the threshold is reached we enter SACK-style
       recovery: each further dupack may refetch the next hole (earliest
       unsacked segment not already retransmitted this window), so
       multiple losses in one window do not each cost an RTO. The
       congestion controller is told once per window. *)
    let c = { c with dup_acks = c.dup_acks + 1 } in
    if c.dup_acks >= t.cfg.Config.dupack_threshold then begin
      match List.find_opt (fun s -> not (s.s_sacked || s.s_retx)) c.sndq with
      | None -> (c, [])
      | Some victim ->
          Sublayer.Stats.incr t.ctrs.c_retransmits;
          Sublayer.Stats.incr t.ctrs.c_fast_retransmits;
          Sublayer.Span.child t.sp ~key:(fkey victim.s_off) ~detail:"fast" "retx";
          let resend = { victim with s_retx = true; s_sent_at = t.now () } in
          let sndq =
            List.map (fun s -> if s.s_off = victim.s_off then resend else s) c.sndq
          in
          let fresh_window = c.snd_acked >= c.recover in
          let c = { c with sndq; recover = (if fresh_window then c.snd_max else c.recover) } in
          let loss_acts = if fresh_window then [ Up (`Loss Cc.Dup_ack) ] else [] in
          ( c,
            Note (Printf.sprintf "fast retransmit offset=%d" victim.s_off)
            :: (send_data t c resend :: loss_acts)
            @ [ arm_rto t c ] )
    end
    else (c, [])
  end
  else
    (* No progress and not a countable dupack — but the segment still
       carries the peer's current OSR block: pass it up so pure window
       updates reopen a zero-window-stalled sender. *)
    (c, [ Up (`Acked (c.snd_acked, osr_pdu, None)) ])

let handle_down_ind t (ind : down_ind) =
  match ind with
  | `Established (isn_local, isn_remote) -> (
      match t.conn with
      | None ->
          let conn =
            { isn_local; isn_remote; sndq = []; snd_acked = 0; snd_max = 0;
              dup_acks = 0; recover = 0; srtt = None; rttvar = 0.;
              rto = t.cfg.Config.rto_init;
              backoffs = 0; last_progress = t.now ();
              block = Segment.encode_osr Segment.default_osr ~payload:"";
              rcv = Ranges.empty; ack_pending = false }
          in
          ({ t with conn = Some conn }, [ Up `Established ])
      | Some c when Ranges.is_empty c.rcv ->
          (* Timer-based CM learns the peer's ISN only from its first
             segment and re-announces the pair; adopt it without
             disturbing sender state (safe while nothing was received). *)
          ({ t with conn = Some { c with isn_local; isn_remote } }, [])
      | Some _ -> (t, [ Note "late establishment ignored" ]))
  | `Peer_fin -> (t, [ Up `Peer_fin ])
  | `Closed ->
      (* CM is done with this connection: stop our timers so the engine
         can quiesce, but keep the record for stats/srtt readers. *)
      (t, [ Cancel_timer Rto; Cancel_timer Ack_delay; Up `Closed ])
  | `Reset ->
      (* The peer refused or tore down the connection; retransmitting
         into it would livelock, so drop all state and timers. *)
      Sublayer.Span.close_all t.sp ~detail:"reset" ();
      ({ t with conn = None }, [ Cancel_timer Rto; Cancel_timer Ack_delay; Up `Reset ])
  | `Pdu pdu ->
      with_conn t (fun c ->
          match Segment.decode_rd_slice pdu with
          | None -> (t, [ Note "undecodable rd pdu dropped" ])
          | Some (rd, osr_pdu) ->
              let c, acts1 =
                if rd.Segment.has_data then handle_data t c rd osr_pdu else (c, [])
              in
              let c, acts2 =
                if rd.Segment.has_ack then handle_ack t c rd osr_pdu else (c, [])
              in
              ({ t with conn = Some c }, acts1 @ acts2))

let handle_timer t tm =
  match tm with
  | Ack_delay ->
      with_conn t (fun c ->
          if c.ack_pending then
            ({ t with conn = Some { c with ack_pending = false } }, [ send_ack t c ])
          else (t, []))
  | Rto ->
  with_conn t (fun c ->
      if c.sndq <> [] && give_up t c then begin
        (* Retransmission exhausted: the path is (as far as RD can tell)
           a blackhole. Abort upward with ETIMEDOUT semantics and tell
           CM to tear the connection down — all within this sublayer's
           own vocabulary; no layer violation needed (T3). *)
        Sublayer.Span.close_all t.sp ~detail:"aborted" ();
        ( { t with conn = None },
          [ Note
              (Printf.sprintf "giving up after %d backoffs, %.1fs stalled"
                 c.backoffs (t.now () -. c.last_progress));
            Cancel_timer Ack_delay; Up `Aborted; Down `Abort ] )
      end
      else
      match List.find_opt (fun s -> not s.s_sacked) c.sndq with
      | None -> (
          match c.sndq with
          | [] -> (t, [])
          | all_sacked :: _ ->
              (* Everything outstanding is sacked but not cumulatively
                 acked: resend the oldest anyway. *)
              Sublayer.Stats.incr t.ctrs.c_retransmits;
              Sublayer.Stats.incr t.ctrs.c_timeouts;
              Sublayer.Span.child t.sp ~key:(fkey all_sacked.s_off) ~detail:"rto" "retx";
              let resend = { all_sacked with s_retx = true; s_sent_at = t.now () } in
              let sndq =
                List.map (fun s -> if s.s_off = resend.s_off then resend else s) c.sndq
              in
              let c =
                { c with sndq; backoffs = c.backoffs + 1;
                  rto = Float.min (2. *. c.rto) t.cfg.Config.rto_max }
              in
              ({ t with conn = Some c }, [ send_data t c resend; Up (`Loss Cc.Timeout); arm_rto t c ]))
      | Some victim ->
          Sublayer.Stats.incr t.ctrs.c_retransmits;
          Sublayer.Stats.incr t.ctrs.c_timeouts;
          Sublayer.Span.child t.sp ~key:(fkey victim.s_off) ~detail:"rto" "retx";
          let resend = { victim with s_retx = true; s_sent_at = t.now () } in
          let sndq =
            List.map (fun s -> if s.s_off = victim.s_off then resend else s) c.sndq
          in
          let c =
            { c with sndq; backoffs = c.backoffs + 1;
              rto = Float.min (2. *. c.rto) t.cfg.Config.rto_max }
          in
          ( { t with conn = Some c },
            [ Note (Printf.sprintf "rto retransmit offset=%d rto=%.2f" victim.s_off c.rto);
              send_data t c resend; Up (`Loss Cc.Timeout); arm_rto t c ] ))
