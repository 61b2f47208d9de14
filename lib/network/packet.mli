(** Network-layer packets.

    Test T3 for the network sublayers holds because they use "completely
    different packets (e.g., LSPs versus IP packets), not merely different
    headers in the same packet": {!t} is the data-plane packet; hello and
    routing PDUs travel as distinct frame kinds ({!frame}). *)

type t = {
  src : Addr.t;
  dst : Addr.t;
  ttl : int;
  nonce : int;  (** unique per packet; survives forwarding *)
  payload : Bitkit.Slice.t;
      (** carried by reference: forwarding never copies the payload, and
          a transport segment originated as a slice reaches the far
          host's [from_wire] as the same buffer *)
}

val make : ?ttl:int -> ?nonce:int -> src:Addr.t -> dst:Addr.t -> Bitkit.Slice.t -> t
(** Default TTL 64. The nonce identifies {e this} packet even when an
    identical payload is in flight between the same pair (tracing keys
    correlation state on it); it defaults to a fresh process-wide value
    and is preserved across TTL decrements. *)

val decrement_ttl : t -> t option
(** [None] when the TTL expires. *)

val size : t -> int
(** Approximate on-wire bytes (fixed 12-byte header + payload). *)

type frame = Hello_pdu of string | Routing_pdu of string | Data of t
(** What a link between two routers carries: neighbour determination's
    PDU, route computation's PDU or a data packet. *)

val frame_size : frame -> int
