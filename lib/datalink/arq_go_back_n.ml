(** Go-back-N ARQ: a window of outstanding data PDUs, one timer, full
    window retransmission on timeout. Acknowledgements carry the next
    expected sequence number (cumulative). *)

open Sublayer.Machine

let name = "arq-gbn"
let scope = Arq.scope

type t = {
  cfg : Arq.config;
  ctrs : Arq.counters;
  sp : Sublayer.Span.ctx;
  base : int;
  next : int;
  buf : (int * string) list;  (** unacked, ascending seq, = [base..next) *)
  queue : string Bitkit.Fifo.t;  (** accepted, not yet admitted to the window *)
  rx_expected : int;
  retries : int;  (* consecutive timeouts with no window slide *)
  dead : bool;    (* max_retries exhausted; backlog was discarded *)
}

type up_req = string
type up_ind = string
type down_req = Bitkit.Wirebuf.t
type down_ind = Bitkit.Slice.t
type timer = Rto

let initial ?stats ?span cfg =
  let ctrs =
    match stats with
    | Some scope -> Arq.counters_in scope
    | None -> Arq.fresh_counters ()
  in
  let sp = Option.value span ~default:(Sublayer.Span.disabled name) in
  { cfg; ctrs; sp; base = 0; next = 0; buf = []; queue = Bitkit.Fifo.empty;
    rx_expected = 0; retries = 0; dead = false }

let stats t = Arq.snapshot t.ctrs
let idle t = t.buf = [] && Bitkit.Fifo.is_empty t.queue
let gave_up t = t.dead

let wire seq = Sublayer.Seqspace.wrap Arq.seqspace seq
let skey seq = "s:" ^ string_of_int seq

let fkey seq payload =
  Arq.frame_key ~seq:(wire seq) ~len:(String.length payload)
    ~digest:(Arq.digest_string payload)

let transmit t seq payload =
  Sublayer.Stats.incr t.ctrs.Arq.c_data_sent;
  Down (Arq.data_wirebuf ~seq:(wire seq) payload)

(* Admit queued payloads while the window has room; the window is checked
   before the pop (see {!Bitkit.Fifo}). The timer is (re)armed iff anything
   is outstanding. *)
let rec admit t acts =
  match if t.next - t.base < t.cfg.window then Bitkit.Fifo.pop t.queue else None with
  | Some (payload, queue) ->
      let seq = t.next in
      let t = { t with next = t.next + 1; buf = t.buf @ [ (seq, payload) ]; queue } in
      if Sublayer.Span.active t.sp then begin
        Sublayer.Span.open_ t.sp ~key:(skey seq)
          ~trace:(Sublayer.Span.fresh_trace t.sp) "flight";
        Sublayer.Span.bind t.sp (fkey seq payload)
          (Sublayer.Span.id_of t.sp ~key:(skey seq))
      end;
      admit t (transmit t seq payload :: acts)
  | None -> (t, List.rev acts)

let with_timer t acts =
  if t.buf = [] then (t, acts @ [ Cancel_timer Rto ])
  else (t, acts @ [ Set_timer (Rto, t.cfg.rto) ])

let handle_up_req t payload =
  if t.dead then (t, [ Note "link declared dead; payload dropped" ])
  else begin
    let t = { t with queue = Bitkit.Fifo.push t.queue payload } in
    let t, acts = admit t [] in
    if acts = [] then (t, []) else with_timer t acts
  end

let handle_ack t seq16 =
  let a = Sublayer.Seqspace.reconstruct Arq.seqspace ~reference:t.base seq16 in
  if a <= t.base || a > t.next then (t, [ Note "stale ack" ])
  else begin
    let old_base = t.base in
    let acked, buf = List.partition (fun (s, _) -> s < a) t.buf in
    let t = { t with base = a; buf; retries = 0 } in
    if Sublayer.Span.active t.sp then begin
      for s = old_base to a - 1 do
        Sublayer.Span.close t.sp ~key:(skey s) ~detail:"acked" ()
      done;
      (* Release unconsumed frame-identity bindings (delivery may have
         been suppressed as a duplicate, never taking the key). *)
      List.iter (fun (s, p) -> Sublayer.Span.unbind t.sp (fkey s p)) acked
    end;
    let t, acts = admit t [] in
    with_timer t acts
  end

let handle_data t seq16 payload =
  let seq = Sublayer.Seqspace.reconstruct Arq.seqspace ~reference:t.rx_expected seq16 in
  let t, deliveries =
    if seq = t.rx_expected then begin
      Sublayer.Stats.incr t.ctrs.Arq.c_delivered;
      if Sublayer.Span.active t.sp then begin
        let detail = "seq=" ^ string_of_int seq in
        (* Correlate with the sending flight via the frame's identity:
           the peer bound the flight span under a key derivable from the
           frame content alone. *)
        let fid =
          Sublayer.Span.take t.sp
            (Arq.frame_key ~seq:seq16 ~len:(Bitkit.Slice.length payload)
               ~digest:(Arq.digest_slice payload))
        in
        if fid <> 0 then
          Sublayer.Span.instant t.sp
            ~trace:(Sublayer.Span.trace_of_id t.sp ~id:fid)
            ~parent:fid ~detail "deliver"
        else Sublayer.Span.instant t.sp ~detail "deliver"
      end;
      (* Delivery is the app boundary: the payload view materialises here. *)
      ( { t with rx_expected = t.rx_expected + 1 },
        [ Up (Bitkit.Slice.to_string payload) ] )
    end
    else (t, [ Note "out-of-order data discarded" ])
  in
  Sublayer.Stats.incr t.ctrs.Arq.c_acks_sent;
  (t, deliveries @ [ Down (Arq.ack_wirebuf (wire t.rx_expected)) ])

let handle_down_ind t pdu_bytes =
  match Arq.decode_pdu_slice pdu_bytes with
  | None -> (t, [ Note "undecodable pdu dropped" ])
  | Some (Arq.Rx_data (seq16, payload)) -> handle_data t seq16 payload
  | Some (Arq.Rx_ack seq16) -> handle_ack t seq16

let handle_timer t Rto =
  if t.buf = [] then (t, [])
  else if t.retries >= t.cfg.max_retries then begin
    Sublayer.Stats.incr t.ctrs.Arq.c_give_ups;
    Sublayer.Span.close_all t.sp ~detail:"dead" ();
    if Sublayer.Span.active t.sp then
      List.iter (fun (s, p) -> Sublayer.Span.unbind t.sp (fkey s p)) t.buf;
    ( { t with buf = []; queue = Bitkit.Fifo.empty; dead = true },
      [ Note "give up: max_retries exhausted" ] )
  end
  else begin
    let t = { t with retries = t.retries + 1 } in
    let resends =
      List.concat_map
        (fun (seq, payload) ->
          Sublayer.Stats.incr t.ctrs.Arq.c_retransmissions;
          if Sublayer.Span.active t.sp then
            Sublayer.Span.child t.sp ~key:(skey seq) ~detail:"rto" "retx";
          [ Note "retransmit"; transmit t seq payload ])
        t.buf
    in
    (t, resends @ [ Set_timer (Rto, t.cfg.rto) ])
  end
