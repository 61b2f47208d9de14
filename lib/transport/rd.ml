open Sublayer.Machine

let name = "rd"
let scope = name

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

(* Resolved once per scope: every connection on a shared registry holds
   the same record. *)
let counters =
  Sublayer.Stats.memo (fun sc ->
      {
        c_segments_sent = Sublayer.Stats.counter sc "segments_sent";
        c_retransmits = Sublayer.Stats.counter sc "retransmits";
        c_fast_retransmits = Sublayer.Stats.counter sc "fast_retransmits";
        c_timeouts = Sublayer.Stats.counter sc "timeouts";
        c_acks_only = Sublayer.Stats.counter sc "acks_only";
        c_dup_segments = Sublayer.Stats.counter sc "dup_segments";
      })

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
  sndq : sent Bitkit.Fifo.t;  (* ascending offset *)
  snd_acked : int;
  snd_max : int;     (* high-water mark of submitted stream bytes *)
  dup_acks : int;
  recover : int;     (* no second fast retransmit until acked past this *)
  srtt : float option;
  rttvar : float;
  rto : float;
  backoffs : int;        (* consecutive RTO firings without cumulative progress *)
  last_progress : float; (* when the cumulative ack last advanced (or data was queued) *)
  (* receiver *)
  rcv : Ranges.t;
  ack_pending : bool;  (* a delayed ack is owed *)
}

type t = {
  cfg : Config.t;
  now : unit -> float;
  ctrs : counters;
  sp : Sublayer.Span.ctx;
  block : string;
      (* OSR's current header block, opaque. It is the connection's, but
         OSR replaces it at every window change, so it sits here, where
         storing it copies this record alone. *)
  conn : conn option;
}

type up_req = Iface.rd_req
type up_ind = Iface.rd_ind
type down_req = Iface.cm_req
type down_ind = Iface.cm_ind
type timer = Rto | Ack_delay

let no_span = Sublayer.Span.disabled name
let default_block = Segment.write_osr Segment.default_osr

let initial ?stats ?span cfg ~now =
  let sc =
    match stats with Some sc -> sc | None -> Sublayer.Stats.unregistered scope
  in
  let sp = match span with Some sp -> sp | None -> no_span in
  { cfg; now; ctrs = Sublayer.Stats.memoised counters sc; sp; block = default_block;
    conn = None }

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

let rto t = match t.conn with None -> t.cfg.Config.rto_init | Some c -> c.rto

let outstanding t =
  let rec drain q =
    match Bitkit.Fifo.pop q with
    | None -> []
    | Some (s, q) -> (s.s_off, s.s_sacked, s.s_retx) :: drain q
  in
  match t.conn with None -> [] | Some c -> drain c.sndq

(* Absolute sequence of a stream offset (SYN consumes one number). *)
let abs_seq isn offset = (isn + 1 + offset) land 0xFFFFFFFF

(* The stream offset a 32-bit sequence number [w] stands for, the one
   nearest the offset [near]. It is reconstructed in offset space, so it
   holds once the sequence numbers wrap past 2^32. *)
let offset_of isn ~near w = Sublayer.Seqspace.reconstruct Iface.seq32 ~reference:near (w - isn - 1)

(* The first three received intervals above the cumulative point, as
   SACK blocks, in one pass: the intervals ascend, and only the first
   can reach back to the cumulative point. *)
let rec sack_blocks isn cum n = function
  | (lo, hi) :: rest when n > 0 ->
      if lo > cum then
        { Segment.sack_start = abs_seq isn lo; sack_end = abs_seq isn hi }
        :: sack_blocks isn cum (n - 1) rest
      else sack_blocks isn cum n rest
  | _ -> []

let rcv_sacks c = sack_blocks c.isn_remote (Ranges.cumulative c.rcv) 3 (Ranges.intervals c.rcv)

(* Every outgoing segment carries our cumulative ack and SACK view. *)
let data_segment c sent =
  { Segment.seq = abs_seq c.isn_local sent.s_off;
    ack = abs_seq c.isn_remote (Ranges.cumulative c.rcv);
    len = sent.s_len;
    has_data = true;
    has_ack = true;
    sacks = rcv_sacks c }

let pure_ack c =
  { Segment.seq = 0;
    ack = abs_seq c.isn_remote (Ranges.cumulative c.rcv);
    len = 0;
    has_data = false;
    has_ack = true;
    sacks = rcv_sacks c }

(* [push] is persistent, so stamping a fresh RD header on the stored OSR
   wirebuf at every (re)transmit costs one cons and never touches the
   payload; the header is recomputed so retransmits carry the current
   cumulative ack and SACK view. *)
let send_data t c sent =
  Sublayer.Stats.incr t.ctrs.c_segments_sent;
  Down
    (`Pdu
      (Bitkit.Wirebuf.push sent.s_pdu ~owner:"rd"
         (Segment.write_rd (data_segment c sent))))

let send_ack t c =
  Sublayer.Stats.incr t.ctrs.c_acks_only;
  Down
    (`Pdu
      (Bitkit.Wirebuf.push
         (Bitkit.Wirebuf.of_string t.block)
         ~owner:"rd"
         (Segment.write_rd (pure_ack c))))

let clamp_rto cfg rto = Float.min cfg.Config.rto_max (Float.max cfg.Config.rto_min rto)

(* ETIMEDOUT semantics: no cumulative progress for [give_up_after]
   seconds, or [max_retries] consecutive backoffs, aborts the
   connection. The RTO delay is clamped to the deadline so the abort
   lands within [give_up_after] rather than one backed-off RTO late.
   [now] is the step's time, read once per step. *)
let deadline t c = c.last_progress +. t.cfg.Config.give_up_after

let arm_rto t c now =
  Set_timer (Rto, Float.min c.rto (Float.max 0.001 (deadline t c -. now)))

let give_up t c now =
  c.backoffs >= t.cfg.Config.max_retries || now >= deadline t c

(* RD cancels only a timer it armed. [Ack_delay] is armed only while
   [ack_pending] holds, so an ack sent now disarms it only then; with no
   delayed ack owed (always, when [delayed_ack] is off) there is nothing
   to cancel. [Rto] is armed only while segments wait in [sndq]. *)
let cancel_ack_delay c acts = if c.ack_pending then Cancel_timer Ack_delay :: acts else acts

let cancel_armed t acts =
  match t.conn with
  | None -> acts
  | Some c ->
      let acts = cancel_ack_delay c acts in
      if Bitkit.Fifo.is_empty c.sndq then acts else Cancel_timer Rto :: acts

let no_connection t = (t, [ Note "no connection" ])

(* [sndq] with [resend] in place of the segment at its offset: offsets
   are unique, so only that segment and the list cells before it in its
   half of the queue are new. *)
let replace sndq resend =
  Bitkit.Fifo.map_shared (fun s -> if s.s_off = resend.s_off then resend else s) sndq

let handle_up_req t (req : up_req) =
  match req with
  | `Connect -> (t, [ Down `Connect ])
  | `Listen -> (t, [ Down `Listen ])
  | `Close -> (t, [ Down `Close ])
  | `Set_block block -> (
      match t.conn with None -> (t, []) | Some _ -> ({ t with block }, []))
  | `Announce_block block -> (
      match t.conn with
      | None -> (t, [])
      | Some c ->
          let t = { t with block } in
          (t, [ send_ack t c ]))
  | `Transmit (offset, len, osr_pdu) -> (
      match t.conn with
      | None -> no_connection t
      | Some c ->
          let now = t.now () in
          let sent =
            { s_off = offset; s_len = len; s_pdu = osr_pdu; s_sent_at = now;
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
          let was_idle = Bitkit.Fifo.is_empty c.sndq in
          let c' =
            { c with sndq = Bitkit.Fifo.push c.sndq sent;
              snd_max = max c.snd_max (offset + len);
              (* an idle sender's give-up clock starts when data is
                 queued, not at establishment — else the first write
                 after a long quiet period aborts spuriously *)
              last_progress = (if was_idle then now else c.last_progress);
              backoffs = (if was_idle then 0 else c.backoffs);
              ack_pending = false }
          in
          let acts = if was_idle then [ act; arm_rto t c' now ] else [ act ] in
          (* the data segment piggybacks the ack a delayed one owed *)
          ({ t with conn = Some c' }, cancel_ack_delay c acts))

(* --- An arriving segment: its data (receiver side), then its ack field
   (sender side). The two halves change disjoint fields of the
   connection, so [receive] decides the data half and does its side
   effects, then hands its verdict to [acknowledge], which does the ack
   half, builds the step's one record and puts the data half's actions
   in front of its own. --- *)

(* What the data half found. *)
type arrival =
  | No_data
  | Implausible  (* an extent that does not fit its PDU: dropped *)
  | Fresh  (* new bytes, acknowledged at once *)
  | Fresh_owed  (* new in-order bytes whose ack is delayed *)
  | Duplicate  (* nothing new: acknowledged at once *)

(* The step's result: [c'] is its one record, built from [c] (or [c]
   itself, and then so is [t]); the data half's actions go in front of
   the ack half's [acts]. *)
let finish t c c' arrival offset osr_pdu acts =
  let acts =
    match arrival with
    | No_data -> acts
    | Implausible -> Note "implausible data segment dropped" :: acts
    | Fresh_owed ->
        Up (`Segment (offset, osr_pdu)) :: Set_timer (Ack_delay, t.cfg.Config.ack_delay) :: acts
    | Fresh -> Up (`Segment (offset, osr_pdu)) :: send_ack t c' :: cancel_ack_delay c acts
    | Duplicate -> send_ack t c' :: cancel_ack_delay c acts
  in
  ((if c' == c then t else { t with conn = Some c' }), acts)

(* [c] with the data half's fields and a new [sndq], if any changed. *)
let with_receiver c ~rcv ~owed sndq =
  if rcv == c.rcv && owed = c.ack_pending && sndq == c.sndq then c
  else { c with rcv; ack_pending = owed; sndq }

(* Does a SACK block cover [s]? Each block's edges are reconstructed
   near [s]'s own offset. *)
let rec sacked_by isn s = function
  | [] -> false
  | b :: blocks ->
      let lo = offset_of isn ~near:s.s_off b.Segment.sack_start in
      let hi = lo + ((b.Segment.sack_end - b.Segment.sack_start) land 0xFFFFFFFF) in
      (lo <= s.s_off && s.s_off + s.s_len <= hi) || sacked_by isn s blocks

(* Karn's rule: the RTT sample is the newest acked segment sent only
   once; [found] is the suffix of the acked prefix that starts at it. *)
let rec last_unretransmitted found = function
  | [] -> found
  | s :: rest as l -> last_unretransmitted (if s.s_retx then found else l) rest

(* --- Sender side: the ack field of an arriving segment. [rcv] and
   [owed] are the data half's new receive ranges and delayed-ack flag.
   --- *)
let acknowledge t c (rd : Segment.rd) osr_pdu ~rcv ~owed arrival offset =
  if not rd.Segment.has_ack then
    finish t c (with_receiver c ~rcv ~owed c.sndq) arrival offset osr_pdu []
  else begin
    let acked_off = offset_of c.isn_local ~near:c.snd_acked rd.Segment.ack in
    (* SACK processing: mark covered segments, sharing the rest. *)
    let sndq =
      match rd.Segment.sacks with
      | [] -> c.sndq
      | blocks ->
          Bitkit.Fifo.map_shared
            (fun s ->
              if s.s_sacked || not (sacked_by c.isn_local s blocks) then s
              else { s with s_sacked = true })
            c.sndq
    in
    if acked_off > c.snd_acked && acked_off <= c.snd_max then begin
      (* New data acknowledged: [sndq] ascends by offset, so the acked
         segments are a prefix of it. *)
      let now = t.now () in
      let newly, remaining =
        Bitkit.Fifo.split_while (fun s -> s.s_off + s.s_len <= acked_off) sndq
      in
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
        match last_unretransmitted [] newly with
        | s :: _ -> Some (now -. s.s_sent_at)
        | [] -> None
      in
      let srtt, rttvar, rto =
        match (rtt_sample, c.srtt) with
        | Some sample, None ->
            let rttvar = sample /. 2. in
            (Some sample, rttvar, clamp_rto t.cfg (sample +. (4. *. rttvar)))
        | Some sample, Some srtt ->
            let err = sample -. srtt in
            let srtt = srtt +. (0.125 *. err) in
            let rttvar = c.rttvar +. (0.25 *. (Float.abs err -. c.rttvar)) in
            (Some srtt, rttvar, clamp_rto t.cfg (srtt +. (4. *. rttvar)))
        | None, Some srtt ->
            (* Karn's rule gives no sample from retransmitted segments,
               but a cumulative advance still clears exponential backoff
               — otherwise serial loss recovery crawls at rto_max. *)
            (c.srtt, c.rttvar, clamp_rto t.cfg (srtt +. (4. *. c.rttvar)))
        | None, None -> (c.srtt, c.rttvar, clamp_rto t.cfg t.cfg.Config.rto_init)
      in
      let c' =
        { c with rcv; ack_pending = owed; sndq = remaining; snd_acked = acked_off;
          dup_acks = 0; srtt; rttvar; rto; backoffs = 0; last_progress = now }
      in
      let timer_act =
        if Bitkit.Fifo.is_empty remaining then Cancel_timer Rto else arm_rto t c' now
      in
      (* The timer action must precede the [`Acked] indication: delivering
         it makes OSR release new segments synchronously, and those arm the
         RTO — a stale Cancel_timer sequenced afterwards would silently
         disarm it and deadlock the transfer. *)
      finish t c c' arrival offset osr_pdu
        [ timer_act; Up (`Acked (acked_off, osr_pdu, rtt_sample)) ]
    end
    else if acked_off = c.snd_acked && not (Bitkit.Fifo.is_empty sndq) then begin
      (* Duplicate ack. Once the threshold is reached we enter SACK-style
         recovery: each further dupack may refetch the next hole (earliest
         unsacked segment not already retransmitted this window), so
         multiple losses in one window do not each cost an RTO. The
         congestion controller is told once per window. *)
      let dup_acks = c.dup_acks + 1 in
      let victim =
        if dup_acks >= t.cfg.Config.dupack_threshold then
          Bitkit.Fifo.find_opt (fun s -> not (s.s_sacked || s.s_retx)) sndq
        else None
      in
      match victim with
      | None ->
          finish t c { c with rcv; ack_pending = owed; sndq; dup_acks } arrival offset osr_pdu []
      | Some victim ->
          Sublayer.Stats.incr t.ctrs.c_retransmits;
          Sublayer.Stats.incr t.ctrs.c_fast_retransmits;
          if Sublayer.Span.active t.sp then
            Sublayer.Span.child t.sp ~key:(fkey victim.s_off) ~detail:"fast" "retx";
          let now = t.now () in
          let resend = { victim with s_retx = true; s_sent_at = now } in
          let fresh_window = c.snd_acked >= c.recover in
          let c' =
            { c with rcv; ack_pending = owed; sndq = replace sndq resend; dup_acks;
              recover = (if fresh_window then c.snd_max else c.recover) }
          in
          let rest = [ arm_rto t c' now ] in
          let acts =
            send_data t c' resend
            :: (if fresh_window then Up (`Loss Cc.Dup_ack) :: rest else rest)
          in
          (* The text is built only for a tracer, which [sp] has exactly
             when the endpoint does. *)
          finish t c c' arrival offset osr_pdu
            (if Sublayer.Span.active t.sp then
               Note (Printf.sprintf "fast retransmit offset=%d" victim.s_off) :: acts
             else acts)
    end
    else
      (* No progress and not a countable dupack — but the segment still
         carries the peer's current OSR block: pass it up so pure window
         updates reopen a zero-window-stalled sender. *)
      finish t c (with_receiver c ~rcv ~owed sndq) arrival offset osr_pdu
        [ Up (`Acked (c.snd_acked, osr_pdu, None)) ]
  end

(* --- Receiver side: the data of an arriving segment. --- *)
let receive t c (rd : Segment.rd) osr_pdu =
  let rcv_cum = Ranges.cumulative c.rcv in
  let offset = offset_of c.isn_remote ~near:rcv_cum rd.Segment.seq in
  (* RD cannot know the upper sublayer's header size (T3), so the only
     sanity check available is that the claimed extent fits in the PDU. *)
  if offset < 0 || rd.Segment.len > Bitkit.Slice.length osr_pdu then
    acknowledge t c rd osr_pdu ~rcv:c.rcv ~owed:c.ack_pending Implausible offset
  else begin
    let rcv, fresh = Ranges.add c.rcv offset (offset + rd.Segment.len) in
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
      if t.cfg.Config.delayed_ack && Ranges.cumulative rcv > rcv_cum && not c.ack_pending
      then acknowledge t c rd osr_pdu ~rcv ~owed:true Fresh_owed offset
      else acknowledge t c rd osr_pdu ~rcv ~owed:false Fresh offset
    end
    else begin
      Sublayer.Stats.incr t.ctrs.c_dup_segments;
      (* The same ranges: keep the record's own. *)
      acknowledge t c rd osr_pdu ~rcv:c.rcv ~owed:false Duplicate offset
    end
  end

let handle_down_ind t (ind : down_ind) =
  match ind with
  | `Established (isn_local, isn_remote) -> (
      match t.conn with
      | None ->
          let conn =
            { isn_local; isn_remote; sndq = Bitkit.Fifo.empty; snd_acked = 0; snd_max = 0;
              dup_acks = 0; recover = 0; srtt = None; rttvar = 0.;
              rto = t.cfg.Config.rto_init;
              backoffs = 0; last_progress = t.now ();
              rcv = Ranges.empty; ack_pending = false }
          in
          ({ t with block = default_block; conn = Some conn }, [ Up `Established ])
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
      (t, cancel_armed t [ Up `Closed ])
  | `Reset ->
      (* The peer refused or tore down the connection; retransmitting
         into it would livelock, so drop all state and timers. *)
      Sublayer.Span.close_all t.sp ~detail:"reset" ();
      ({ t with conn = None }, cancel_armed t [ Up `Reset ])
  | `Pdu pdu -> (
      match t.conn with
      | None -> no_connection t
      | Some c -> (
          match Segment.decode_rd_slice pdu with
          | None -> (t, [ Note "undecodable rd pdu dropped" ])
          | Some (rd, osr_pdu) ->
              if rd.Segment.has_data then receive t c rd osr_pdu
              else acknowledge t c rd osr_pdu ~rcv:c.rcv ~owed:c.ack_pending No_data 0))

let handle_timer t tm =
  match (tm, t.conn) with
  | _, None -> no_connection t
  | Ack_delay, Some c ->
      if c.ack_pending then
        ({ t with conn = Some { c with ack_pending = false } }, [ send_ack t c ])
      else (t, [])
  | Rto, Some c -> (
      let now = t.now () in
      if (not (Bitkit.Fifo.is_empty c.sndq)) && give_up t c now then begin
        (* Retransmission exhausted: the path is (as far as RD can tell)
           a blackhole. Abort upward with ETIMEDOUT semantics and tell
           CM to tear the connection down — all within this sublayer's
           own vocabulary; no layer violation needed (T3). *)
        Sublayer.Span.close_all t.sp ~detail:"aborted" ();
        ( { t with conn = None },
          Note
            (Printf.sprintf "giving up after %d backoffs, %.1fs stalled" c.backoffs
               (now -. c.last_progress))
          :: cancel_ack_delay c [ Up `Aborted; Down `Abort ] )
      end
      else
        (* The oldest unsacked segment, or when everything outstanding
           is sacked but not cumulatively acked, the oldest anyway. *)
        let unsacked = Bitkit.Fifo.find_opt (fun s -> not s.s_sacked) c.sndq in
        let victim =
          match unsacked with
          | Some _ -> unsacked
          | None -> Bitkit.Fifo.find_opt (fun _ -> true) c.sndq
        in
        match victim with
        | None -> (t, [])
        | Some victim ->
            Sublayer.Stats.incr t.ctrs.c_retransmits;
            Sublayer.Stats.incr t.ctrs.c_timeouts;
            if Sublayer.Span.active t.sp then
              Sublayer.Span.child t.sp ~key:(fkey victim.s_off) ~detail:"rto" "retx";
            let resend = { victim with s_retx = true; s_sent_at = now } in
            let c =
              { c with sndq = replace c.sndq resend; backoffs = c.backoffs + 1;
                rto = Float.min (2. *. c.rto) t.cfg.Config.rto_max }
            in
            let acts = [ send_data t c resend; Up (`Loss Cc.Timeout); arm_rto t c now ] in
            ( { t with conn = Some c },
              if Option.is_some unsacked && Sublayer.Span.active t.sp then
                Note (Printf.sprintf "rto retransmit offset=%d rto=%.2f" victim.s_off c.rto)
                :: acts
              else acts ))
