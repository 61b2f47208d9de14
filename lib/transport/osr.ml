open Sublayer.Machine

let name = "osr"
let scope = name

type stats = {
  mutable bytes_written : int;
  mutable bytes_delivered : int;
  mutable segments_out : int;
}

type counters = {
  c_bytes_written : Sublayer.Stats.counter;
  c_bytes_delivered : Sublayer.Stats.counter;
  c_segments_out : Sublayer.Stats.counter;
  c_copied_app_bytes : Sublayer.Stats.counter;
}

(* Resolved once per scope: every connection on a shared registry holds
   the same record. *)
let counters =
  Sublayer.Stats.memo (fun sc ->
      {
        c_bytes_written = Sublayer.Stats.counter sc "bytes_written";
        c_bytes_delivered = Sublayer.Stats.counter sc "bytes_delivered";
        c_segments_out = Sublayer.Stats.counter sc "segments_out";
        c_copied_app_bytes = Sublayer.Stats.counter sc "copied_app_bytes";
      })

(* The outgoing byte stream not yet segmented: a chunk queue with a
   partially-consumed head. Mutable by design (like [stats]); the
   surrounding state record is threaded immutably. *)
module Outbuf = struct
  type t = { chunks : string Queue.t; mutable head_used : int; mutable total : int }

  let create () = { chunks = Queue.create (); head_used = 0; total = 0 }

  let push t s =
    if String.length s > 0 then begin
      Queue.add s t.chunks;
      t.total <- t.total + String.length s
    end

  let length t = t.total

  (* Consume [k] bytes of the head chunk. *)
  let drop t k =
    t.total <- t.total - k;
    t.head_used <- t.head_used + k;
    if t.head_used = String.length (Queue.peek t.chunks) then begin
      ignore (Queue.pop t.chunks);
      t.head_used <- 0
    end

  (* Take up to [n] bytes from the front of a non-empty buffer. Written
     strings are immutable, so a segment the head chunk holds whole is a
     view of it; one that spans chunks is copied once, into a buffer of
     its exact size. *)
  let take t n =
    let n = min n t.total in
    if n <= String.length (Queue.peek t.chunks) - t.head_used then begin
      let sl = Bitkit.Slice.make (Queue.peek t.chunks) ~off:t.head_used ~len:n in
      drop t n;
      sl
    end
    else begin
      let b = Bytes.create n in
      let pos = ref 0 in
      while !pos < n do
        let head = Queue.peek t.chunks in
        let grab = min (String.length head - t.head_used) (n - !pos) in
        Bytes.blit_string head t.head_used b !pos grab;
        drop t grab;
        pos := !pos + grab
      done;
      Bitkit.Slice.of_string (Bytes.unsafe_to_string b)
    end
end

type conn = {
  cc : Cc.instance;
  outbuf : Outbuf.t;
  wq : (int * int * int) Queue.t; (* (base, len, trace) per pending write *)
  next_off : int;
  acked : int;
  peer_window : int;
  fin_requested : bool;
  fin_sent : bool;
  peer_fin_seen : bool;
  (* receiver: offset-ascending, all >= rcv_cum. Each staged segment is
     an owned view plus the pool slot backing it ([Pool.no_slot] for heap
     storage or the borrowed in-order fast path). *)
  reasm : (int * (Bitkit.Slice.t * int)) list;
  rcv_cum : int;
  unread : int;               (* delivered but not yet consumed upstream *)
  advertised : int;
  last_ce : float;            (* when we last saw a CE mark *)
  last_ecn_reaction : float;  (* sender side: rate-limit on_ecn *)
  persist_armed : bool;
      (* set when a zero window arms [Persist], cleared when it fires
         without re-arming or an open window cancels it: OSR cancels
         the probe only while this holds *)
}

type t = {
  cfg : Config.t;
  now : unit -> float;
  ctrs : counters;
  cc_stats : Sublayer.Stats.scope option;
  sp : Sublayer.Span.ctx;
  pool : Bitkit.Pool.t option;
  pre_writes : string list;  (* reversed; writes before establishment *)
  pre_close : bool;
  conn : conn option;
}

type up_req = Iface.app_req
type up_ind = Iface.app_ind
type down_req = Iface.rd_req
type down_ind = Iface.rd_ind
type timer = Persist

(* Zero-window probe interval. *)
let persist_interval = 0.5

let no_span = Sublayer.Span.disabled name

let initial ?stats ?cc_stats ?span ?pool cfg ~now =
  let sc =
    match stats with Some sc -> sc | None -> Sublayer.Stats.unregistered scope
  in
  let sp = match span with Some sp -> sp | None -> no_span in
  { cfg; now; ctrs = Sublayer.Stats.memoised counters sc; cc_stats; sp; pool;
    pre_writes = []; pre_close = false; conn = None }

(* Fresh snapshot of the counters in the legacy record shape. *)
let stats t =
  let v c = Sublayer.Stats.value c in
  { bytes_written = v t.ctrs.c_bytes_written;
    bytes_delivered = v t.ctrs.c_bytes_delivered;
    segments_out = v t.ctrs.c_segments_out }

let cwnd t =
  match t.conn with
  | None -> Float.of_int t.cfg.Config.mss
  | Some c -> c.cc.Cc.window ()

let peer_window t = match t.conn with None -> 0xFFFF | Some c -> c.peer_window

let stream_finished t =
  match t.conn with
  | None -> false
  | Some c -> Outbuf.length c.outbuf = 0 && c.acked = c.next_off

(* Echo CE marks back to the sender for a short window after seeing one
   (a simplified version of TCP's ECE/CWR handshake). *)
let echo_period = 0.05

let my_header t c =
  { Segment.window = min 0xFFFF c.advertised;
    ecn_echo = t.now () -. c.last_ce < echo_period;
    ecn_ce = false }

let block t c = Segment.write_osr (my_header t c)

(* Each write gets a fresh trace and a "buffer" span covering its wait in
   the outbound stream; [wq] remembers (offset, length, trace) so the
   segmenter below can find it. Benign mutation, like [Outbuf] itself. *)
let note_write t c base len =
  if Sublayer.Span.active t.sp && len > 0 then begin
    let trace = Sublayer.Span.fresh_trace t.sp in
    Sublayer.Span.open_ t.sp ~key:("w:" ^ string_of_int base) ~trace "buffer";
    Queue.add (base, len, trace) c.wq
  end

(* A segment [off, off+len) leaves: hand its trace down to RD under the
   endpoint-local offset key, and close the buffer spans of writes this
   segment finishes consuming. *)
let note_segment t c ~off ~len =
  if Sublayer.Span.active t.sp then begin
    (match Queue.peek_opt c.wq with
    | Some (_, _, trace) when trace <> 0 ->
        Sublayer.Span.bind_local t.sp ("off:" ^ string_of_int off) trace
    | Some _ | None -> ());
    let continue = ref true in
    while !continue do
      match Queue.peek_opt c.wq with
      | Some (base, wlen, _) when base + wlen <= off + len ->
          ignore (Queue.pop c.wq);
          Sublayer.Span.close t.sp
            ~key:("w:" ^ string_of_int base)
            ~detail:"segmented" ()
      | Some _ | None -> continue := false
    done
  end

(* A step builds at most one connection record and one [t], and hands
   back [t] itself when [c'] is already its record. A [t] with a
   connection has no pre-establishment writes left. *)
let with_conn t c' =
  match t.conn with
  | Some c when c == c' -> t
  | Some _ | None -> { t with conn = Some c'; pre_writes = [] }

(* Release segments while both windows have room, then the FIN once the
   stream is done. A single segment is always allowed when nothing is in
   flight, so a tiny window cannot deadlock the connection.
   [peer_window], [acked] and [last_ecn_reaction] are the step's values
   of those fields (an ack may just have moved them); with [disarm] an
   open window cancels the probe. The burst builds the step's one
   record. [rev_acts] are the actions that go before the burst's,
   newest first. *)
let release t c ~peer_window ~acked ~last_ecn_reaction ~disarm rev_acts =
  let mss = t.cfg.Config.mss in
  let acts = ref rev_acts and next_off = ref c.next_off in
  let probe = ref false and continue = ref true in
  (* One header for the burst: its window and echo bit cannot change
     within a step. Written at the first segment. *)
  let header = ref "" in
  while !continue do
    let in_flight = !next_off - acked in
    let want = min mss (Outbuf.length c.outbuf) in
    (* Nagle: while data is in flight, hold back sub-MSS segments so
       small writes coalesce — unless the stream is being closed. *)
    let nagled =
      t.cfg.Config.nagle && want < mss && in_flight > 0 && not c.fin_requested
    in
    if want > 0 && peer_window <= 0 then begin
      (* Zero window: respect it (no blast-through) and keep a persist
         probe armed so a lost window update cannot deadlock us. *)
      probe := in_flight = 0;
      continue := false
    end
    else if want = 0 || nagled then continue := false
    else begin
      let window = int_of_float (Float.min (c.cc.Cc.window ()) (Float.of_int peer_window)) in
      if window - in_flight < want && in_flight > 0 then continue := false
      else begin
        let payload = Outbuf.take c.outbuf want in
        if String.length !header = 0 then header := block t c;
        let osr_pdu =
          Bitkit.Wirebuf.push (Bitkit.Wirebuf.of_slice payload) ~owner:"osr" !header
        in
        Sublayer.Stats.incr t.ctrs.c_segments_out;
        note_segment t c ~off:!next_off ~len:want;
        acts := Down (`Transmit (!next_off, want, osr_pdu)) :: !acts;
        next_off := !next_off + want
      end
    end
  done;
  let next_off = !next_off in
  let fin =
    c.fin_requested && (not c.fin_sent) && Outbuf.length c.outbuf = 0 && acked = next_off
  in
  let persist_armed = !probe || ((not disarm) && c.persist_armed) in
  let c' =
    if
      next_off = c.next_off && peer_window = c.peer_window && acked = c.acked
      && Float.equal last_ecn_reaction c.last_ecn_reaction
      && persist_armed = c.persist_armed && not fin
    then c
    else
      { c with next_off; peer_window; acked; last_ecn_reaction; persist_armed;
        fin_sent = c.fin_sent || fin }
  in
  let acts = if !probe then Set_timer (Persist, persist_interval) :: !acts else !acts in
  (with_conn t c', List.rev (if fin then Down `Close :: acts else acts))

(* The advertised window for reassembly occupancy [reasm] and [unread]
   delivered bytes. *)
let advertise t ~reasm ~unread =
  let buffered =
    List.fold_left (fun acc (_, (b, _)) -> acc + Bitkit.Slice.length b) 0 reasm
  in
  max 0 (min 0xFFFF (t.cfg.Config.rcv_buf - buffered - unread))

(* Announce a window that moved from [old] to [c]'s, in front of [acts]:
   a reopening at once (the stalled peer has no traffic to learn from
   otherwise), any other change with the next segment. *)
let window_acts t ~old c acts =
  if c.advertised = old then acts
  else if old < t.cfg.Config.mss && c.advertised >= t.cfg.Config.mss then
    Down (`Announce_block (block t c)) :: acts
  else Down (`Set_block (block t c)) :: acts

let handle_up_req t (req : up_req) =
  match (req, t.conn) with
  | `Connect, _ -> (t, [ Down `Connect ])
  | `Listen, _ -> (t, [ Down `Listen ])
  | `Write s, None ->
      Sublayer.Stats.add t.ctrs.c_bytes_written (String.length s);
      ({ t with pre_writes = s :: t.pre_writes }, [])
  | `Write s, Some c ->
      Sublayer.Stats.add t.ctrs.c_bytes_written (String.length s);
      note_write t c (c.next_off + Outbuf.length c.outbuf) (String.length s);
      Outbuf.push c.outbuf s;
      release t c ~peer_window:c.peer_window ~acked:c.acked
        ~last_ecn_reaction:c.last_ecn_reaction ~disarm:false []
  | `Read n, Some c ->
      let unread = max 0 (c.unread - n) in
      let advertised = advertise t ~reasm:c.reasm ~unread in
      if unread = c.unread && advertised = c.advertised then (t, [])
      else
        let c' = { c with unread; advertised } in
        (with_conn t c', window_acts t ~old:c.advertised c' [])
  | `Read _, None -> (t, [])
  | `Close, None -> ({ t with pre_close = true }, [])
  | `Close, Some c ->
      let fin =
        (not c.fin_sent) && Outbuf.length c.outbuf = 0 && c.acked = c.next_off
      in
      ( with_conn t { c with fin_requested = true; fin_sent = c.fin_sent || fin },
        if fin then [ Down `Close ] else [] )

(* Copy an out-of-order payload into storage OSR owns across events: the
   incoming wire view dies with the current event (a channel may hold it
   in a pool slot released right after delivery). The staging copy is
   the receive path's only byte copy, charged here. *)
let stage t payload =
  let len = Bitkit.Slice.length payload in
  Sublayer.Stats.add t.ctrs.c_copied_app_bytes len;
  let heap () =
    (Bitkit.Slice.of_string (Bitkit.Slice.to_string payload), Bitkit.Pool.no_slot)
  in
  match t.pool with
  | None -> heap ()
  | Some pool ->
      let slot = Bitkit.Pool.loan pool ~len in
      if slot = Bitkit.Pool.no_slot then heap ()
      else begin
        Bitkit.Slice.blit payload (Bitkit.Pool.buffer pool)
          (Bitkit.Pool.off pool slot);
        (Bitkit.Pool.slice pool slot ~len, slot)
      end

(* Stage [owned] at [offset] in the offset-ascending reassembly store;
   offsets are unique there, so this is the sorted insert. *)
let rec insert offset owned = function
  | (off, _) as staged :: rest when off < offset -> staged :: insert offset owned rest
  | rest -> (offset, owned) :: rest

(* The staged run that continues the stream from [cum] in the
   offset-ascending store: where it ends, and the store after it. *)
let rec run_end cum = function
  | (off, (sl, _)) :: rest when off = cum -> run_end (cum + Bitkit.Slice.length sl) rest
  | _ -> cum

let rec after_run cum = function
  | (off, (sl, _)) :: rest when off = cum -> after_run (cum + Bitkit.Slice.length sl) rest
  | reasm -> reasm

(* The walks below visit the staged segments of [reasm] that come before
   its suffix [rest]: the run an in-order arrival delivers. *)

(* Their [Data], in order, in front of [acts]. *)
let rec run_acts rest acts reasm =
  match reasm with
  | (_, (sl, _)) :: more when reasm != rest -> Up (`Data sl) :: run_acts rest acts more
  | _ -> acts

(* Close their reassembly spans and hand their pool slots back at the
   end of the event. *)
let rec retire_run t rest reasm =
  match reasm with
  | (off, (_, slot)) :: more when reasm != rest ->
      if Sublayer.Span.active t.sp then
        Sublayer.Span.close t.sp ~key:("r:" ^ string_of_int off) ~detail:"delivered" ();
      (match t.pool with
      | Some pool when slot <> Bitkit.Pool.no_slot -> Bitkit.Pool.defer_release pool slot
      | Some _ | None -> ());
      retire_run t rest more
  | _ -> ()

(* The new block goes down at once when a data segment arrives
   CE-marked: the echo starts now. *)
let echo_acts t (hdr : Segment.osr) c =
  if hdr.Segment.ecn_ce then [ Down (`Set_block (block t c)) ] else []

(* Accept a segment that arrived with [hdr]: insert it into the
   reassembly store and deliver the in-order prefix, in one record with
   the header's window and CE mark. Duplicate offsets cannot occur (RD
   delivers exactly once), but a segment at an already-delivered offset
   is ignored defensively.

   An in-order arrival is delivered at once, as a borrowed view of the
   wire buffer — the zero-copy fast path — with the staged run it
   completes; only segments that will sit in [reasm] across events are
   staged. Delivered pool slots are released at end of event, after the
   application has consumed the [`Data] views. *)
let accept_segment t c (hdr : Segment.osr) offset payload =
  (* A CE mark on received data is echoed back to the sender, whose
     congestion controller reacts — not ours. *)
  let last_ce = if hdr.Segment.ecn_ce then t.now () else c.last_ce in
  let peer_window = hdr.Segment.window in
  if offset < c.rcv_cum || List.mem_assoc offset c.reasm then begin
    let c' =
      if peer_window = c.peer_window && not hdr.Segment.ecn_ce then c
      else { c with peer_window; last_ce }
    in
    (with_conn t c', echo_acts t hdr c')
  end
  else begin
    (* RD bound this offset's trace locally on fresh delivery; the reasm
       span covers the wait for in-order release. *)
    if Sublayer.Span.active t.sp then begin
      let trace = Sublayer.Span.take_local t.sp ("off:" ^ string_of_int offset) in
      Sublayer.Span.open_ t.sp
        ~key:("r:" ^ string_of_int offset)
        ~trace "reasm"
    end;
    if offset > c.rcv_cum then begin
      (* A gap before it: staged until the gap fills. *)
      let reasm = insert offset (stage t payload) c.reasm in
      let advertised = advertise t ~reasm ~unread:c.unread in
      let c' = { c with peer_window; last_ce; reasm; advertised } in
      (with_conn t c', window_acts t ~old:c.advertised c' (echo_acts t hdr c'))
    end
    else begin
      let cum = offset + Bitkit.Slice.length payload in
      let rcv_cum = run_end cum c.reasm and reasm = after_run cum c.reasm in
      if Sublayer.Span.active t.sp then
        Sublayer.Span.close t.sp ~key:("r:" ^ string_of_int offset) ~detail:"delivered" ();
      retire_run t reasm c.reasm;
      let fresh_bytes = rcv_cum - c.rcv_cum in
      Sublayer.Stats.add t.ctrs.c_bytes_delivered fresh_bytes;
      let unread = c.unread + fresh_bytes in
      let advertised = advertise t ~reasm ~unread in
      let c' = { c with peer_window; last_ce; reasm; rcv_cum; unread; advertised } in
      ( with_conn t c',
        Up (`Data payload)
        :: run_acts reasm (window_acts t ~old:c.advertised c' (echo_acts t hdr c')) c.reasm )
    end
  end

(* Return any staged pool slots before dropping connection state, or an
   aborted connection would leak them for the rest of the run. *)
let free_reasm t =
  match (t.pool, t.conn) with
  | Some pool, Some c ->
      List.iter
        (fun (_, (_, slot)) ->
          if slot <> Bitkit.Pool.no_slot then Bitkit.Pool.defer_release pool slot)
        c.reasm
  | _ -> ()

(* Disarm the probe at a terminal indication, if it is set. *)
let cancel_persist t acts =
  match t.conn with Some c when c.persist_armed -> Cancel_timer Persist :: acts | _ -> acts

let handle_down_ind t (ind : down_ind) =
  match (ind, t.conn) with
  | `Established, None ->
      let cc = t.cfg.Config.cc.Cc.create ~mss:t.cfg.Config.mss ~now:t.now in
      let cc =
        match t.cc_stats with Some sc -> Cc.instrument sc cc | None -> cc
      in
      let c =
        { cc; outbuf = Outbuf.create (); wq = Queue.create ();
          next_off = 0; acked = 0; peer_window = 0xFFFF;
          fin_requested = t.pre_close; fin_sent = false; peer_fin_seen = false;
          reasm = []; rcv_cum = 0; unread = 0;
          advertised = min 0xFFFF t.cfg.Config.rcv_buf;
          last_ce = Float.neg_infinity; last_ecn_reaction = Float.neg_infinity;
          persist_armed = false }
      in
      (* Pre-establishment writes get their buffer spans now — their wait
         only becomes attributable once a connection exists. *)
      ignore
        (List.fold_left
           (fun base s ->
             note_write t c base (String.length s);
             base + String.length s)
           0 (List.rev t.pre_writes));
      List.iter (Outbuf.push c.outbuf) (List.rev t.pre_writes);
      release t c ~peer_window:c.peer_window ~acked:c.acked
        ~last_ecn_reaction:c.last_ecn_reaction ~disarm:false
        [ Down (`Set_block (block t c)); Up `Established ]
  | `Established, Some _ -> (t, [ Note "duplicate establishment ignored" ])
  | `Segment (offset, osr_pdu), Some c -> (
      match Segment.decode_osr_slice osr_pdu with
      | None -> (t, [ Note "undecodable osr pdu dropped" ])
      | Some (hdr, payload) -> accept_segment t c hdr offset payload)
  | `Acked (upto, block_bytes, rtt), Some c ->
      let peer_window, echo =
        match Segment.decode_osr_header block_bytes with
        | Some hdr -> (hdr.Segment.window, hdr.Segment.ecn_echo)
        | None -> (c.peer_window, false)
      in
      let last_ecn_reaction =
        if not echo then c.last_ecn_reaction
        else begin
          let now = t.now () in
          if now -. c.last_ecn_reaction > echo_period then begin
            (* React to congestion marks at most once per echo period
               (standing in for once-per-RTT CWR semantics). *)
            c.cc.Cc.on_ecn ();
            now
          end
          else c.last_ecn_reaction
        end
      in
      let bytes = upto - c.acked in
      if bytes > 0 then c.cc.Cc.on_ack ~bytes ~rtt;
      (* An open window needs no probe: disarm one that is set. *)
      let disarm = peer_window > 0 && c.persist_armed in
      release t c ~peer_window ~acked:(max c.acked upto) ~last_ecn_reaction ~disarm
        (if disarm then [ Cancel_timer Persist ] else [])
  | `Loss kind, Some c ->
      c.cc.Cc.on_loss kind;
      (t, [])
  | `Peer_fin, Some c ->
      (with_conn t { c with peer_fin_seen = true }, [ Up `Peer_closed ])
  | `Closed, _ -> (t, cancel_persist t [ Up `Closed ])
  | `Reset, _ ->
      (* A reset connection will never reopen its window: without
         clearing state here the persist timer would probe a corpse
         forever and the engine could never quiesce. *)
      Sublayer.Span.close_all t.sp ~detail:"reset" ();
      free_reasm t;
      ({ t with conn = None }, cancel_persist t [ Up `Reset ])
  | `Aborted, _ ->
      Sublayer.Span.close_all t.sp ~detail:"aborted" ();
      free_reasm t;
      ({ t with conn = None }, cancel_persist t [ Up `Aborted ])
  | (`Segment _ | `Acked _ | `Loss _ | `Peer_fin), None ->
      (t, [ Note "indication before establishment dropped" ])

let handle_timer t Persist =
  match t.conn with
  | Some c
    when c.peer_window <= 0 && c.next_off = c.acked && Outbuf.length c.outbuf > 0 ->
      (* 1-byte window probe; the ack it provokes carries the current
         window. *)
      let payload = Outbuf.take c.outbuf 1 in
      let osr_pdu =
        Bitkit.Wirebuf.push
          (Bitkit.Wirebuf.of_slice payload)
          ~owner:"osr"
          (block t c)
      in
      Sublayer.Stats.incr t.ctrs.c_segments_out;
      note_segment t c ~off:c.next_off ~len:1;
      ( with_conn t { c with next_off = c.next_off + 1 },
        [ Down (`Transmit (c.next_off, 1, osr_pdu));
          Set_timer (Persist, persist_interval) ] )
  | Some c when c.persist_armed ->
      (* It fired and is not re-armed. *)
      (with_conn t { c with persist_armed = false }, [])
  | Some _ | None -> (t, [])
