module Slice = Bitkit.Slice
module Wirebuf = Bitkit.Wirebuf

let mask32 = 0xFFFFFFFF
let w32 v = v land mask32

type t = {
  mutable local_isn : int option;
  mutable remote_isn : int option;
  mutable snd_nxt : int;      (* wire-32: next seq we would use *)
  mutable rcv_nxt : int;      (* wire-32: next seq we expect *)
  mutable fin_sent_seq : int option;
  mutable peer_fin_seen : bool;
  mutable last_window : int;  (* our last advertised OSR window *)
  mutable handshake_done : bool;
  (* A standard FIN can arrive while earlier data is still missing; CM
     must not see (and ack) it until the byte stream is complete, or the
     peer would trim unreceived data. The FIN is parked here with its
     sequence number and connection ports until our own cumulative ack
     catches up. *)
  mutable pending_fin : (int * (int * int)) option;
  inbound : Slice.t Queue.t;
}

let create () =
  { local_isn = None; remote_isn = None; snd_nxt = 0; rcv_nxt = 0;
    fin_sent_seq = None; peer_fin_seen = false; last_window = 0xFFFF;
    handshake_done = false; pending_fin = None; inbound = Queue.create () }

let drain_inbound t =
  let l = List.of_seq (Queue.to_seq t.inbound) in
  Queue.clear t.inbound;
  l

(* Advance a wire-32 high-water mark, tolerating wrap. *)
let advance current candidate =
  let delta = (candidate - current) land mask32 in
  if delta < 0x80000000 then w32 (current + delta) else current

let std t ports ?(payload = "") ?(seq = t.snd_nxt) ?(ack = t.rcv_nxt) flags =
  let src_port, dst_port = ports in
  [ Slice.of_string
      (Wire.encode
         { Wire.src_port; dst_port; seq; ack; flags; window = t.last_window }
         ~payload) ]

let cm_hdr t flags =
  { Segment.flags;
    (* Incoming segments speak with the peer's identity: its ISN first. *)
    isn_local = Option.value ~default:0 t.remote_isn;
    isn_remote = Option.value ~default:0 t.local_isn }

let push owner header wb = Wirebuf.push wb ~owner header

(* A sublayered segment: CM and DM headers pushed onto [rd_pdu], which
   is empty for a CM control. *)
let sub t ports cm_flags rd_pdu =
  let src_port, dst_port = ports in
  rd_pdu
  |> push "cm" (Segment.write_cm (cm_hdr t cm_flags))
  |> push "dm" (Segment.write_dm { Segment.src_port; dst_port })
  |> Wirebuf.to_slice

(* Once our cumulative ack reaches a parked FIN, hand it to CM. *)
let maybe_release_fin t =
  match t.pending_fin with
  | Some (fin_seq, ports) when fin_seq = t.rcv_nxt && not t.peer_fin_seen ->
      t.pending_fin <- None;
      t.peer_fin_seen <- true;
      t.rcv_nxt <- w32 (fin_seq + 1);
      Queue.add (sub t ports { Segment.no_cm_flags with fin = true } Wirebuf.empty) t.inbound
  | _ -> ()

(* --- outgoing: sublayered -> standard --- *)

let sub_to_std t wire =
  match Segment.decode_dm_slice wire with
  | None -> []
  | Some (dm, rest) -> (
      let ports = (dm.Segment.src_port, dm.Segment.dst_port) in
      match Segment.decode_cm_slice rest with
      | None -> []
      | Some (cm, rd_pdu) ->
          let f = cm.Segment.flags in
          if f.Segment.rst then
            std t ports { Wire.no_flags with rst = true; ack = true }
          else if f.Segment.syn && not f.Segment.ack then begin
            t.local_isn <- Some cm.Segment.isn_local;
            t.snd_nxt <- w32 (cm.Segment.isn_local + 1);
            std t ports ~seq:cm.Segment.isn_local ~ack:0
              { Wire.no_flags with syn = true }
          end
          else if f.Segment.syn && f.Segment.ack then begin
            t.local_isn <- Some cm.Segment.isn_local;
            t.remote_isn <- Some cm.Segment.isn_remote;
            t.snd_nxt <- w32 (cm.Segment.isn_local + 1);
            t.rcv_nxt <- w32 (cm.Segment.isn_remote + 1);
            std t ports ~seq:cm.Segment.isn_local ~ack:t.rcv_nxt
              { Wire.no_flags with syn = true; ack = true }
          end
          else if f.Segment.fin then begin
            t.fin_sent_seq <- Some t.snd_nxt;
            std t ports { Wire.no_flags with fin = true; ack = true }
          end
          else if f.Segment.ack then begin
            (* CM's bare acknowledgement (of a SYN or of a FIN). *)
            t.handshake_done <- true;
            std t ports { Wire.no_flags with ack = true }
          end
          else begin
            (* Data path: RD + OSR fields map directly. *)
            match Segment.decode_rd_slice rd_pdu with
            | None -> []
            | Some (rd, osr_pdu) -> (
                match Segment.decode_osr_slice osr_pdu with
                | None -> []
                | Some (osr_hdr, payload) ->
                    t.last_window <- osr_hdr.Segment.window;
                    if rd.Segment.has_ack then begin
                      t.rcv_nxt <- advance t.rcv_nxt rd.Segment.ack;
                      maybe_release_fin t
                    end;
                    let seq = if rd.Segment.has_data then rd.Segment.seq else t.snd_nxt in
                    if rd.Segment.has_data then
                      t.snd_nxt <- advance t.snd_nxt (w32 (rd.Segment.seq + rd.Segment.len));
                    t.handshake_done <- true;
                    std t ports ~payload:(Slice.to_string payload) ~seq
                      ~ack:(if rd.Segment.has_ack then rd.Segment.ack else t.rcv_nxt)
                      { Wire.no_flags with ack = rd.Segment.has_ack })
          end)

(* --- incoming: standard -> sublayered --- *)

let data_pdu (h : Wire.t) payload =
  let len = Slice.length payload in
  let rd =
    { Segment.seq = h.Wire.seq;
      ack = h.Wire.ack;
      len;
      has_data = len > 0;
      has_ack = h.Wire.flags.Wire.ack;
      sacks = [] }
  in
  let osr =
    { Segment.window = h.Wire.window; ecn_echo = false; ecn_ce = false }
  in
  Wirebuf.of_slice payload
  |> push "osr" (Segment.write_osr osr)
  |> push "rd" (Segment.write_rd rd)

let std_to_sub t wire =
  match Wire.decode_slice wire with
  | None -> []
  | Some (h, payload) ->
      let ports = (h.Wire.src_port, h.Wire.dst_port) in
      let f = h.Wire.flags in
      if f.Wire.rst then [ sub t ports { Segment.no_cm_flags with rst = true } Wirebuf.empty ]
      else if f.Wire.syn && not f.Wire.ack then begin
        t.remote_isn <- Some h.Wire.seq;
        t.rcv_nxt <- w32 (h.Wire.seq + 1);
        [ sub t ports { Segment.no_cm_flags with syn = true } Wirebuf.empty ]
      end
      else if f.Wire.syn && f.Wire.ack then begin
        t.remote_isn <- Some h.Wire.seq;
        t.rcv_nxt <- w32 (h.Wire.seq + 1);
        if t.local_isn = None then t.local_isn <- Some (w32 (h.Wire.ack - 1));
        [ sub t ports { Segment.no_cm_flags with syn = true; ack = true } Wirebuf.empty ]
      end
      else begin
        let out = ref [] in
        let emit s = out := s :: !out in
        (* The peer's window rides every segment; deliver data and acks
           through the RD/OSR path. *)
        if Slice.length payload > 0 || (f.Wire.ack && not f.Wire.fin) then
          emit (sub t ports Segment.no_cm_flags (data_pdu h payload));
        (* An ack that covers our FIN completes CM's teardown. *)
        (match (f.Wire.ack, t.fin_sent_seq) with
        | true, Some fin_seq when h.Wire.ack = w32 (fin_seq + 1) ->
            emit (sub t ports { Segment.no_cm_flags with ack = true } Wirebuf.empty)
        | _ -> ());
        (* The handshake's third ack, before any data has flowed. *)
        (match (t.local_isn, t.handshake_done) with
        | Some isn, false
          when f.Wire.ack && Slice.length payload = 0 && h.Wire.ack = w32 (isn + 1) ->
            t.handshake_done <- true;
            emit (sub t ports { Segment.no_cm_flags with ack = true } Wirebuf.empty)
        | _ -> ());
        if f.Wire.fin then begin
          let fin_seq = w32 (h.Wire.seq + Slice.length payload) in
          if t.peer_fin_seen then
            (* retransmitted FIN after release: CM re-acks it *)
            emit (sub t ports { Segment.no_cm_flags with fin = true } Wirebuf.empty)
          else if fin_seq = t.rcv_nxt then begin
            (* in sequence: the byte stream is complete *)
            t.peer_fin_seen <- true;
            t.rcv_nxt <- w32 (fin_seq + 1);
            emit (sub t ports { Segment.no_cm_flags with fin = true } Wirebuf.empty)
          end
          else
            (* data still missing below the FIN: park it *)
            t.pending_fin <- Some (fin_seq, ports)
        end;
        List.rev !out
      end

let factory =
  {
    Host.fname = "sublayered+shim";
    peek = Wire.peek_ports;
    make =
      (fun ?(ins = Sublayer.Instrument.none) engine ~name cfg ~local_port ~remote_port ~transmit ~events ->
        (* The shim re-encodes every segment (it is the copying
           translation path), so arena loans would never survive it:
           strip the pool before handing the context to the inner
           sublayered endpoint. *)
        let ins = { ins with Sublayer.Instrument.pool = None } in
        let shim = create () in
        let inner_ref = ref None in
        let pump () =
          match !inner_ref with
          | None -> ()
          | Some inner -> List.iter inner.Host.ep_from_wire (drain_inbound shim)
        in
        let inner_transmit seg =
          List.iter transmit (sub_to_std shim seg);
          pump ()
        in
        let inner =
          Host.sublayered.Host.make ~ins engine ~name cfg ~local_port
            ~remote_port ~transmit:inner_transmit ~events
        in
        inner_ref := Some inner;
        {
          Host.ep_from_wire =
            (fun wire ->
              List.iter inner.Host.ep_from_wire (std_to_sub shim wire);
              pump ());
          ep_connect = inner.Host.ep_connect;
          ep_listen = inner.Host.ep_listen;
          ep_write = inner.Host.ep_write;
          ep_read = inner.Host.ep_read;
          ep_close = inner.Host.ep_close;
          ep_abort = inner.Host.ep_abort;
          ep_finished = inner.Host.ep_finished;
        });
  }
