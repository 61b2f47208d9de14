type config = { window : int; rto : float; max_retries : int }

let default_config = { window = 8; rto = 0.25; max_retries = 30 }

let seqspace = Sublayer.Seqspace.create ~width:16

(* kind:8 (0 data, 1 ack) seq:16, then a data PDU's payload. Data PDUs
   start the packet's wirebuf (the detector below appends its trailer
   at materialisation), and received PDUs are read in place as views of
   the frame: the payload only becomes an owned string when the ARQ
   delivers it to the application. *)

let header_bytes = 3

let header kind seq =
  let b = Bytes.create header_bytes in
  Bytes.set_uint8 b 0 kind;
  Bytes.set_uint16_be b 1 seq;
  Bytes.unsafe_to_string b

let data_wirebuf ~seq payload =
  Bitkit.Wirebuf.push (Bitkit.Wirebuf.of_string payload) ~owner:"arq" (header 0 seq)

let ack_wirebuf seq = Bitkit.Wirebuf.push Bitkit.Wirebuf.empty ~owner:"arq" (header 1 seq)

type rx = Rx_data of int * Bitkit.Slice.t | Rx_ack of int

let decode_pdu_slice (sl : Bitkit.Slice.t) =
  if sl.len < header_bytes then None
  else
    let seq = String.get_uint16_be sl.base (sl.off + 1) in
    match String.get_uint8 sl.base sl.off with
    | 0 ->
        let payload = Bitkit.Slice.sub sl ~pos:header_bytes ~len:(sl.len - header_bytes) in
        Some (Rx_data (seq, payload))
    | 1 when sl.len = header_bytes -> Some (Rx_ack seq)
    | _ -> None

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

type stats = { data_sent : int; retransmissions : int; acks_sent : int; delivered : int }

(* Counter bundle shared by the three ARQ variants.  The hot path bumps
   these [Stats] cells; [snapshot] reads them into a [stats] record. *)
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

let scope = "arq"
let fresh_counters () = counters_in (Sublayer.Stats.unregistered scope)

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
    Sublayer.Compose.SUBLAYER
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
