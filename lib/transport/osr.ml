open Sublayer.Machine

let name = "osr"

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

let counters_in sc =
  {
    c_bytes_written = Sublayer.Stats.counter sc "bytes_written";
    c_bytes_delivered = Sublayer.Stats.counter sc "bytes_delivered";
    c_segments_out = Sublayer.Stats.counter sc "segments_out";
    c_copied_app_bytes = Sublayer.Stats.counter sc "copied_app_bytes";
  }

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

let initial ?stats ?cc_stats ?span ?pool cfg ~now =
  let sc =
    match stats with Some sc -> sc | None -> Sublayer.Stats.unregistered "osr"
  in
  let sp =
    match span with Some sp -> sp | None -> Sublayer.Span.disabled name
  in
  { cfg; now; ctrs = counters_in sc; cc_stats; sp; pool;
    pre_writes = []; pre_close = false; conn = None }

(* Fresh snapshot of the counters in the legacy record shape. *)
let stats t =
  let v c = Sublayer.Stats.value c in
  { bytes_written = v t.ctrs.c_bytes_written;
    bytes_delivered = v t.ctrs.c_bytes_delivered;
    segments_out = v t.ctrs.c_segments_out }

let cc_name t = match t.conn with None -> t.cfg.Config.cc.Cc.algo_name | Some c -> c.cc.Cc.name
let cwnd t =
  match t.conn with
  | None -> Float.of_int t.cfg.Config.mss
  | Some c -> c.cc.Cc.window ()

let peer_window t = match t.conn with None -> 0xFFFF | Some c -> c.peer_window
let unsent_bytes t =
  match t.conn with
  | None -> List.fold_left (fun acc s -> acc + String.length s) 0 t.pre_writes
  | Some c -> Outbuf.length c.outbuf

let unread_bytes t = match t.conn with None -> 0 | Some c -> c.unread

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

let block t c = Segment.encode_osr (my_header t c) ~payload:""

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

(* Release segments while both windows have room. A single segment is
   always allowed when nothing is in flight, so a tiny window cannot
   deadlock the connection. *)
let try_send t c =
  let acts = ref [] in
  let c = ref c in
  let continue = ref true in
  while !continue do
    let cn = !c in
    let in_flight = cn.next_off - cn.acked in
    let window = int_of_float (Float.min (cn.cc.Cc.window ()) (Float.of_int cn.peer_window)) in
    let room = window - in_flight in
    let want = min t.cfg.Config.mss (Outbuf.length cn.outbuf) in
    (* Nagle: while data is in flight, hold back sub-MSS segments so
       small writes coalesce — unless the stream is being closed. *)
    let nagled =
      t.cfg.Config.nagle && want < t.cfg.Config.mss && in_flight > 0
      && not cn.fin_requested
    in
    if want > 0 && cn.peer_window <= 0 then begin
      (* Zero window: respect it (no blast-through) and keep a persist
         probe armed so a lost window update cannot deadlock us. *)
      if in_flight = 0 then acts := `Persist_arm :: !acts;
      continue := false
    end
    else if want = 0 || nagled || (room < want && in_flight > 0) then continue := false
    else begin
      let payload = Outbuf.take cn.outbuf want in
      let osr_pdu =
        Bitkit.Wirebuf.push
          (Bitkit.Wirebuf.of_slice payload)
          ~owner:"osr"
          (Segment.write_osr (my_header t cn))
      in
      Sublayer.Stats.incr t.ctrs.c_segments_out;
      note_segment t cn ~off:cn.next_off ~len:want;
      acts := `Transmit (cn.next_off, want, osr_pdu) :: !acts;
      c := { cn with next_off = cn.next_off + want }
    end
  done;
  ( !c,
    List.rev_map
      (function
        | `Persist_arm -> Set_timer (Persist, persist_interval)
        | #Iface.rd_req as req -> Down req)
      !acts )

let maybe_fin c =
  if
    c.fin_requested && (not c.fin_sent) && Outbuf.length c.outbuf = 0
    && c.acked = c.next_off
  then ({ c with fin_sent = true }, [ Down `Close ])
  else (c, [])

(* Recompute the advertised window from reassembly occupancy and unread
   delivered bytes; announce reopenings proactively (the stalled peer has
   no traffic to learn from otherwise). *)
let refresh_window t c =
  let buffered =
    List.fold_left (fun acc (_, (b, _)) -> acc + Bitkit.Slice.length b) 0 c.reasm
  in
  let advertised = max 0 (min 0xFFFF (t.cfg.Config.rcv_buf - buffered - c.unread)) in
  if advertised = c.advertised then (c, [])
  else begin
    let reopened = c.advertised < t.cfg.Config.mss && advertised >= t.cfg.Config.mss in
    let c = { c with advertised } in
    if reopened then (c, [ Down (`Announce_block (block t c)) ])
    else (c, [ Down (`Set_block (block t c)) ])
  end

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
      let c, acts = try_send t c in
      ({ t with conn = Some c }, acts)
  | `Read n, Some c ->
      let c = { c with unread = max 0 (c.unread - n) } in
      let c, acts = refresh_window t c in
      ({ t with conn = Some c }, acts)
  | `Read _, None -> (t, [])
  | `Close, None -> ({ t with pre_close = true }, [])
  | `Close, Some c ->
      let c = { c with fin_requested = true } in
      let c, acts = maybe_fin c in
      ({ t with conn = Some c }, acts)

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

(* Insert a segment into the reassembly store and deliver the in-order
   prefix. Duplicate offsets cannot occur (RD delivers exactly once), but
   a segment at an already-delivered offset is ignored defensively.

   An in-order arrival is guaranteed to drain within this call, so it is
   entered as a borrowed view of the wire buffer — the zero-copy fast
   path; only segments that will sit in [reasm] across events are
   staged. Delivered pool slots are released at end of event, after the
   application has consumed the [`Data] views. *)
let accept_segment t c offset payload =
  if offset < c.rcv_cum || List.mem_assoc offset c.reasm then (c, [])
  else begin
    (* RD bound this offset's trace locally on fresh delivery; the reasm
       span covers the wait for in-order release. *)
    if Sublayer.Span.active t.sp then begin
      let trace = Sublayer.Span.take_local t.sp ("off:" ^ string_of_int offset) in
      Sublayer.Span.open_ t.sp
        ~key:("r:" ^ string_of_int offset)
        ~trace "reasm"
    end;
    let owned =
      if offset = c.rcv_cum then (payload, Bitkit.Pool.no_slot)
      else stage t payload
    in
    let reasm =
      List.sort (fun (a, _) (b, _) -> Int.compare a b) ((offset, owned) :: c.reasm)
    in
    let rec drain cum reasm delivered =
      match reasm with
      | (off, (sl, slot)) :: rest when off = cum ->
          drain (cum + Bitkit.Slice.length sl) rest ((sl, slot) :: delivered)
      | _ -> (cum, reasm, List.rev delivered)
    in
    let rcv_cum, reasm, delivered = drain c.rcv_cum reasm [] in
    if Sublayer.Span.active t.sp then
      ignore
        (List.fold_left
           (fun off (sl, _) ->
             Sublayer.Span.close t.sp
               ~key:("r:" ^ string_of_int off)
               ~detail:"delivered" ();
             off + Bitkit.Slice.length sl)
           c.rcv_cum delivered);
    (match t.pool with
    | Some pool ->
        List.iter
          (fun (_, slot) ->
            if slot <> Bitkit.Pool.no_slot then Bitkit.Pool.defer_release pool slot)
          delivered
    | None -> ());
    let fresh_bytes =
      List.fold_left (fun acc (sl, _) -> acc + Bitkit.Slice.length sl) 0 delivered
    in
    Sublayer.Stats.add t.ctrs.c_bytes_delivered fresh_bytes;
    let c = { c with reasm; rcv_cum; unread = c.unread + fresh_bytes } in
    let c, window_acts = refresh_window t c in
    (c, List.map (fun (sl, _) -> Up (`Data sl)) delivered @ window_acts)
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
          last_ce = Float.neg_infinity; last_ecn_reaction = Float.neg_infinity }
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
      let c, send_acts = try_send t c in
      let c, fin_acts = maybe_fin c in
      ( { t with conn = Some c; pre_writes = [] },
        (Up `Established :: Down (`Set_block (block t c)) :: send_acts) @ fin_acts )
  | `Established, Some _ -> (t, [ Note "duplicate establishment ignored" ])
  | `Segment (offset, osr_pdu), Some c -> (
      match Segment.decode_osr_slice osr_pdu with
      | None -> (t, [ Note "undecodable osr pdu dropped" ])
      | Some (hdr, payload) ->
          let c = { c with peer_window = hdr.Segment.window } in
          (* A CE mark on received data is echoed back to the sender,
             whose congestion controller reacts — not ours. *)
          let c =
            if hdr.Segment.ecn_ce then { c with last_ce = t.now () } else c
          in
          let c, acts = accept_segment t c offset payload in
          let acts =
            if hdr.Segment.ecn_ce then acts @ [ Down (`Set_block (block t c)) ]
            else acts
          in
          ({ t with conn = Some c }, acts))
  | `Acked (upto, block_bytes, rtt), Some c ->
      let c =
        match Segment.decode_osr_slice block_bytes with
        | Some (hdr, _) ->
            let c =
              if hdr.Segment.ecn_echo && t.now () -. c.last_ecn_reaction > echo_period
              then begin
                (* React to congestion marks at most once per echo period
                   (standing in for once-per-RTT CWR semantics). *)
                c.cc.Cc.on_ecn ();
                { c with last_ecn_reaction = t.now () }
              end
              else c
            in
            { c with peer_window = hdr.Segment.window }
        | None -> c
      in
      let bytes = upto - c.acked in
      if bytes > 0 then c.cc.Cc.on_ack ~bytes ~rtt;
      let c = { c with acked = max c.acked upto } in
      let c, send_acts = try_send t c in
      let c, fin_acts = maybe_fin c in
      let persist_acts = if c.peer_window > 0 then [ Cancel_timer Persist ] else [] in
      ({ t with conn = Some c }, persist_acts @ send_acts @ fin_acts)
  | `Loss kind, Some c ->
      c.cc.Cc.on_loss kind;
      (t, [])
  | `Peer_fin, Some c ->
      ({ t with conn = Some { c with peer_fin_seen = true } }, [ Up `Peer_closed ])
  | `Closed, _ -> (t, [ Cancel_timer Persist; Up `Closed ])
  | `Reset, _ ->
      (* A reset connection will never reopen its window: without
         clearing state here the persist timer would probe a corpse
         forever and the engine could never quiesce. *)
      Sublayer.Span.close_all t.sp ~detail:"reset" ();
      free_reasm t;
      ({ t with conn = None }, [ Cancel_timer Persist; Up `Reset ])
  | `Aborted, _ ->
      Sublayer.Span.close_all t.sp ~detail:"aborted" ();
      free_reasm t;
      ({ t with conn = None }, [ Cancel_timer Persist; Up `Aborted ])
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
          (Segment.write_osr (my_header t c))
      in
      Sublayer.Stats.incr t.ctrs.c_segments_out;
      note_segment t c ~off:c.next_off ~len:1;
      let c = { c with next_off = c.next_off + 1 } in
      ( { t with conn = Some c },
        [ Down (`Transmit (c.next_off - 1, 1, osr_pdu));
          Set_timer (Persist, persist_interval) ] )
  | Some _ | None -> (t, [])
