(** Selective-repeat ARQ: per-sequence timers, individual acknowledgements,
    receiver-side reordering buffer. Only lost PDUs are retransmitted. *)

open Sublayer.Machine

let name = "arq-sr"
let scope = Arq.scope

type t = {
  cfg : Arq.config;
  ctrs : Arq.counters;
  sp : Sublayer.Span.ctx;
  base : int;
  next : int;
  buf : (int * string * bool) list;  (** (seq, payload, acked), ascending *)
  queue : string Bitkit.Fifo.t;  (** accepted, not yet admitted to the window *)
  rx_expected : int;
  rx_buf : (int * Bitkit.Slice.t * int) list;
      (** (seq, payload view, sending-flight span id) of received frames,
          ascending seq; the frame identity is taken at arrival because
          the sender's binding may be released (ack received) before a
          gap fills and the frame is delivered *)
  retries : int;  (* consecutive timeouts with no ack activity *)
  dead : bool;    (* max_retries exhausted; backlog was discarded *)
}

type up_req = string
type up_ind = string
type down_req = Bitkit.Wirebuf.t
type down_ind = Bitkit.Slice.t
type timer = Rto of int

let initial ?stats ?span cfg =
  let ctrs =
    match stats with
    | Some scope -> Arq.counters_in scope
    | None -> Arq.fresh_counters ()
  in
  let sp = Option.value span ~default:(Sublayer.Span.disabled name) in
  { cfg; ctrs; sp; base = 0; next = 0; buf = []; queue = Bitkit.Fifo.empty;
    rx_expected = 0; rx_buf = []; retries = 0; dead = false }

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

(* The window is checked before the pop: see {!Bitkit.Fifo}. *)
let rec admit t acts =
  match if t.next - t.base < t.cfg.window then Bitkit.Fifo.pop t.queue else None with
  | Some (payload, queue) ->
      let seq = t.next in
      let t = { t with next = t.next + 1; buf = t.buf @ [ (seq, payload, false) ]; queue } in
      if Sublayer.Span.active t.sp then begin
        Sublayer.Span.open_ t.sp ~key:(skey seq)
          ~trace:(Sublayer.Span.fresh_trace t.sp) "flight";
        Sublayer.Span.bind t.sp (fkey seq payload)
          (Sublayer.Span.id_of t.sp ~key:(skey seq))
      end;
      admit t (Set_timer (Rto seq, t.cfg.rto) :: transmit t seq payload :: acts)
  | None -> (t, List.rev acts)

let handle_up_req t payload =
  if t.dead then (t, [ Note "link declared dead; payload dropped" ])
  else admit { t with queue = Bitkit.Fifo.push t.queue payload } []

let handle_ack t seq16 =
  let a = Sublayer.Seqspace.reconstruct Arq.seqspace ~reference:t.base seq16 in
  if a < t.base || a >= t.next then (t, [ Note "stale ack" ])
  else begin
    (* Individual acks: close the one sequence this ack covers (repeats
       for an already-acked seq find no live span and are no-ops). *)
    if Sublayer.Span.active t.sp then begin
      Sublayer.Span.close t.sp ~key:(skey a) ~detail:"acked" ();
      (* Release the frame-identity binding if delivery never took it. *)
      List.iter
        (fun (s, p, _) -> if s = a then Sublayer.Span.unbind t.sp (fkey s p))
        t.buf
    end;
    let buf =
      List.map (fun (s, p, acked) -> if s = a then (s, p, true) else (s, p, acked)) t.buf
    in
    (* Slide the window past the acknowledged prefix. *)
    let rec slide base = function
      | (s, _, true) :: rest when s = base -> slide (base + 1) rest
      | rest -> (base, rest)
    in
    let base, buf = slide t.base buf in
    let t = { t with base; buf; retries = 0 } in
    let t, acts = admit t [] in
    (t, (Cancel_timer (Rto a) :: acts))
  end

let handle_data t seq16 payload =
  let seq = Sublayer.Seqspace.reconstruct Arq.seqspace ~reference:t.rx_expected seq16 in
  Sublayer.Stats.incr t.ctrs.Arq.c_acks_sent;
  let ack = Down (Arq.ack_wirebuf seq16) in
  if seq < t.rx_expected then (t, [ Note "duplicate data"; ack ])
  else begin
    (* Insert into the reordering buffer (dedup), then deliver any
       in-order prefix. *)
    let rx_buf =
      if List.exists (fun (s, _, _) -> s = seq) t.rx_buf then t.rx_buf
      else begin
        let fid =
          if Sublayer.Span.active t.sp then
            Sublayer.Span.take t.sp
              (Arq.frame_key ~seq:seq16 ~len:(Bitkit.Slice.length payload)
                 ~digest:(Arq.digest_slice payload))
          else 0
        in
        List.sort
          (fun (a, _, _) (b, _, _) -> Int.compare a b)
          ((seq, payload, fid) :: t.rx_buf)
      end
    in
    let rec drain expected rx_buf delivered =
      match rx_buf with
      | (s, p, fid) :: rest when s = expected ->
          drain (expected + 1) rest ((s, p, fid) :: delivered)
      | _ -> (expected, rx_buf, List.rev delivered)
    in
    let rx_expected, rx_buf, delivered = drain t.rx_expected rx_buf [] in
    Sublayer.Stats.add t.ctrs.Arq.c_delivered (List.length delivered);
    if Sublayer.Span.active t.sp then
      List.iter
        (fun (s, _, fid) ->
          (* Join the sending flight's trace via the frame identity. *)
          let detail = "seq=" ^ string_of_int s in
          if fid <> 0 then
            Sublayer.Span.instant t.sp
              ~trace:(Sublayer.Span.trace_of_id t.sp ~id:fid)
              ~parent:fid ~detail "deliver"
          else Sublayer.Span.instant t.sp ~detail "deliver")
        delivered;
    (* Delivery is the app boundary: buffered views materialise here. *)
    let deliveries =
      List.map (fun (_, p, _) -> Up (Bitkit.Slice.to_string p)) delivered
    in
    ({ t with rx_expected; rx_buf }, deliveries @ [ ack ])
  end

let handle_down_ind t pdu_bytes =
  match Arq.decode_pdu_slice pdu_bytes with
  | None -> (t, [ Note "undecodable pdu dropped" ])
  | Some (Arq.Rx_data (seq16, payload)) -> handle_data t seq16 payload
  | Some (Arq.Rx_ack seq16) -> handle_ack t seq16

let handle_timer t (Rto seq) =
  match List.find_opt (fun (s, _, acked) -> s = seq && not acked) t.buf with
  | None -> (t, [])
  | Some _ when t.retries >= t.cfg.max_retries ->
      (* Cancel the surviving per-sequence timers so the engine can
         quiesce; the one for [seq] just fired and is gone already. *)
      let cancels =
        List.filter_map
          (fun (s, _, acked) -> if acked || s = seq then None else Some (Cancel_timer (Rto s)))
          t.buf
      in
      Sublayer.Stats.incr t.ctrs.Arq.c_give_ups;
      Sublayer.Span.close_all t.sp ~detail:"dead" ();
      if Sublayer.Span.active t.sp then
        List.iter
          (fun (s, p, acked) ->
            if not acked then Sublayer.Span.unbind t.sp (fkey s p))
          t.buf;
      ( { t with buf = []; queue = Bitkit.Fifo.empty; dead = true },
        Note "give up: max_retries exhausted" :: cancels )
  | Some (_, payload, _) ->
      Sublayer.Stats.incr t.ctrs.Arq.c_retransmissions;
      if Sublayer.Span.active t.sp then
        Sublayer.Span.child t.sp ~key:(skey seq) ~detail:"rto" "retx";
      ( { t with retries = t.retries + 1 },
        [ Note "retransmit"; transmit t seq payload; Set_timer (Rto seq, t.cfg.rto) ] )
