(** Stop-and-wait ARQ: one outstanding data PDU, alternating via a full
    16-bit sequence number; acknowledgements echo the data sequence. *)

open Sublayer.Machine

let name = "arq-sw"

type t = {
  cfg : Arq.config;
  ctrs : Arq.counters;
  sp : Sublayer.Span.ctx;
  next : int;
  outstanding : (int * string) option;
  queue : string Arq.Fifo.t;  (* accepted while a PDU is outstanding *)
  rx_expected : int;
  retries : int;      (* consecutive timeouts for the outstanding PDU *)
  dead : bool;        (* max_retries exhausted; backlog was discarded *)
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
  { cfg; ctrs; sp; next = 0; outstanding = None; queue = Arq.Fifo.empty;
    rx_expected = 0; retries = 0; dead = false }

let stats t = Arq.snapshot t.ctrs
let idle t = t.outstanding = None && Arq.Fifo.is_empty t.queue
let gave_up t = t.dead

let wire seq = Sublayer.Seqspace.wrap Arq.seqspace seq
let skey seq = "s:" ^ string_of_int seq

let fkey seq payload =
  Arq.frame_key ~seq:(wire seq) ~len:(String.length payload)
    ~digest:(Arq.digest_string payload)

let transmit t seq payload =
  Sublayer.Stats.incr t.ctrs.Arq.c_data_sent;
  Down (Arq.data_wirebuf ~seq:(wire seq) payload)

let start_send t payload =
  let seq = t.next in
  if Sublayer.Span.active t.sp then begin
    Sublayer.Span.open_ t.sp ~key:(skey seq)
      ~trace:(Sublayer.Span.fresh_trace t.sp) "flight";
    Sublayer.Span.bind t.sp (fkey seq payload)
      (Sublayer.Span.id_of t.sp ~key:(skey seq))
  end;
  ( { t with next = t.next + 1; outstanding = Some (seq, payload) },
    [ transmit t seq payload; Set_timer (Rto, t.cfg.rto) ] )

let handle_up_req t payload =
  if t.dead then (t, [ Note "link declared dead; payload dropped" ])
  else
    match t.outstanding with
    | None -> start_send t payload
    | Some _ -> ({ t with queue = Arq.Fifo.push t.queue payload }, [])

let handle_ack t seq16 =
  match t.outstanding with
  | Some (seq, sent)
    when Sublayer.Seqspace.reconstruct Arq.seqspace ~reference:seq seq16 = seq -> (
      Sublayer.Span.close t.sp ~key:(skey seq) ~detail:"acked" ();
      if Sublayer.Span.active t.sp then
        (* Release the frame-identity binding if delivery never took it. *)
        Sublayer.Span.unbind t.sp (fkey seq sent);
      let t = { t with outstanding = None; retries = 0 } in
      match Arq.Fifo.pop t.queue with
      | None -> (t, [ Cancel_timer Rto ])
      | Some (payload, queue) ->
          let t, acts = start_send { t with queue } payload in
          (t, Cancel_timer Rto :: acts))
  | Some _ | None -> (t, [ Note "stale ack ignored" ])

let handle_data t seq16 payload =
  let seq = Sublayer.Seqspace.reconstruct Arq.seqspace ~reference:t.rx_expected seq16 in
  Sublayer.Stats.incr t.ctrs.Arq.c_acks_sent;
  let ack = Down (Arq.ack_wirebuf seq16) in
  if seq = t.rx_expected then begin
    Sublayer.Stats.incr t.ctrs.Arq.c_delivered;
    let detail = "seq=" ^ string_of_int seq in
    if Sublayer.Span.active t.sp then begin
      (* Join the sending flight's trace via the frame's identity key. *)
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
      [ Up (Bitkit.Slice.to_string payload); ack ] )
  end
  else (t, [ Note "duplicate data"; ack ])

let handle_down_ind t pdu_bytes =
  match Arq.decode_pdu_slice pdu_bytes with
  | None -> (t, [ Note "undecodable pdu dropped" ])
  | Some (Arq.Rx_data (seq16, payload)) -> handle_data t seq16 payload
  | Some (Arq.Rx_ack seq16) -> handle_ack t seq16

let handle_timer t Rto =
  match t.outstanding with
  | None -> (t, [])
  | Some (seq, sent) when t.retries >= t.cfg.max_retries ->
      Sublayer.Stats.incr t.ctrs.Arq.c_give_ups;
      Sublayer.Span.close_all t.sp ~detail:"dead" ();
      if Sublayer.Span.active t.sp then
        Sublayer.Span.unbind t.sp (fkey seq sent);
      ( { t with outstanding = None; queue = Arq.Fifo.empty; dead = true },
        [ Note "give up: max_retries exhausted" ] )
  | Some (seq, payload) ->
      Sublayer.Stats.incr t.ctrs.Arq.c_retransmissions;
      Sublayer.Span.child t.sp ~key:(skey seq) ~detail:"rto" "retx";
      ( { t with retries = t.retries + 1 },
        [ Note "retransmit"; transmit t seq payload; Set_timer (Rto, t.cfg.rto) ] )
