type config = { window : int; rto : float; max_retries : int }

let default_config = { window = 8; rto = 0.25; max_retries = 30 }

type pdu = Data of int * string | Ack of int

let seqspace = Sublayer.Seqspace.create ~width:16

let encode_pdu pdu =
  let w = Bitkit.Bitio.Writer.create () in
  (match pdu with
  | Data (seq, payload) ->
      Bitkit.Bitio.Writer.uint8 w 0;
      Bitkit.Bitio.Writer.uint16 w (seq land 0xFFFF);
      Bitkit.Bitio.Writer.bytes w payload
  | Ack seq ->
      Bitkit.Bitio.Writer.uint8 w 1;
      Bitkit.Bitio.Writer.uint16 w (seq land 0xFFFF));
  Bitkit.Bitio.Writer.contents w

let decode_pdu s =
  match
    let r = Bitkit.Bitio.Reader.of_string s in
    let kind = Bitkit.Bitio.Reader.uint8 r in
    let seq = Bitkit.Bitio.Reader.uint16 r in
    match kind with
    | 0 -> Some (Data (seq, Bitkit.Bitio.Reader.rest r))
    | 1 -> if Bitkit.Bitio.Reader.remaining_bits r = 0 then Some (Ack seq) else None
    | _ -> None
  with
  | v -> v
  | exception Bitkit.Bitio.Reader.Truncated -> None

(* The zero-copy wire crossing: data PDUs start the packet's wirebuf
   (the detector below appends its trailer at materialisation), and
   received PDUs decode as views of the frame — the payload only becomes
   an owned string when the ARQ delivers it to the application. *)

let write_data_header seq w =
  Bitkit.Bitio.Writer.uint8 w 0;
  Bitkit.Bitio.Writer.uint16 w (seq land 0xFFFF)

let data_wirebuf ~seq payload =
  Bitkit.Wirebuf.push
    (Bitkit.Wirebuf.of_string payload)
    ~owner:"arq" (write_data_header seq)

let ack_wirebuf seq =
  Bitkit.Wirebuf.push Bitkit.Wirebuf.empty ~owner:"arq" (fun w ->
      Bitkit.Bitio.Writer.uint8 w 1;
      Bitkit.Bitio.Writer.uint16 w (seq land 0xFFFF))

type rx = Rx_data of int * Bitkit.Slice.t | Rx_ack of int

let decode_pdu_slice sl =
  match
    let r = Bitkit.Bitio.Reader.of_slice sl in
    let kind = Bitkit.Bitio.Reader.uint8 r in
    let seq = Bitkit.Bitio.Reader.uint16 r in
    match kind with
    | 0 -> Some (Rx_data (seq, Bitkit.Bitio.Reader.rest_slice r))
    | 1 -> if Bitkit.Bitio.Reader.remaining_bits r = 0 then Some (Rx_ack seq) else None
    | _ -> None
  with
  | v -> v
  | exception Bitkit.Bitio.Reader.Truncated -> None

(* Frame-identity correlation: a key both ends of the link can
   reconstruct from the frame content alone — wire sequence number,
   payload length and a cheap FNV-1a payload digest. The sender binds it
   to the flight span in the shared tracer; the receiver takes it at
   first delivery, so the deliver instant lands inside the sending
   flight's trace. Collisions (the two directions carrying an identical
   payload at an identical sequence number simultaneously) merely
   mis-parent one best-effort trace link. *)

let digest_string s =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0x3FFFFFFF)
    s;
  !h

let digest_slice sl =
  let h = ref 0x811c9dc5 in
  for i = 0 to Bitkit.Slice.length sl - 1 do
    h := (!h lxor Char.code (Bitkit.Slice.get sl i)) * 0x01000193 land 0x3FFFFFFF
  done;
  !h

let frame_key ~seq ~len ~digest = Printf.sprintf "dlf:%d:%d:%d" seq len digest

module Fifo = struct
  (* [front] then the reverse of [back]: a push conses onto [back], and a
     pop that finds [front] empty reverses [back] once for all it holds. *)
  type 'a t = { front : 'a list; back : 'a list }

  let empty = { front = []; back = [] }
  let is_empty = function { front = []; back = [] } -> true | _ -> false
  let push q x = { q with back = x :: q.back }

  let pop q =
    match q.front with
    | x :: front -> Some (x, { q with front })
    | [] -> (
        match List.rev q.back with
        | [] -> None
        | x :: front -> Some (x, { front; back = [] }))
end

type stats = {
  mutable data_sent : int;
  mutable retransmissions : int;
  mutable acks_sent : int;
  mutable delivered : int;
}

let fresh_stats () =
  { data_sent = 0; retransmissions = 0; acks_sent = 0; delivered = 0 }

(* Counter bundle shared by the three ARQ variants.  The hot path bumps
   these [Stats] cells; [snapshot] rebuilds the legacy [stats] record for
   callers that read fields directly. *)
type counters = {
  c_data_sent : Sublayer.Stats.counter;
  c_retransmissions : Sublayer.Stats.counter;
  c_acks_sent : Sublayer.Stats.counter;
  c_delivered : Sublayer.Stats.counter;
  c_give_ups : Sublayer.Stats.counter;
}

let counters_in sc =
  {
    c_data_sent = Sublayer.Stats.counter sc "data_sent";
    c_retransmissions = Sublayer.Stats.counter sc "retransmissions";
    c_acks_sent = Sublayer.Stats.counter sc "acks_sent";
    c_delivered = Sublayer.Stats.counter sc "delivered";
    c_give_ups = Sublayer.Stats.counter sc "give_ups";
  }

let fresh_counters () = counters_in (Sublayer.Stats.unregistered "arq")

let snapshot c =
  let open Sublayer.Stats in
  {
    data_sent = value c.c_data_sent;
    retransmissions = value c.c_retransmissions;
    acks_sent = value c.c_acks_sent;
    delivered = value c.c_delivered;
  }

module type S = sig
  include
    Sublayer.Machine.S
      with type up_req = string
       and type up_ind = string
       and type down_req = Bitkit.Wirebuf.t
       and type down_ind = Bitkit.Slice.t

  val initial : ?stats:Sublayer.Stats.scope -> ?span:Sublayer.Span.ctx -> config -> t

  val stats : t -> stats
  (** Snapshot of the machine's counters (fresh record per call). *)

  val idle : t -> bool
  val gave_up : t -> bool
end
