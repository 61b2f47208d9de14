type t = { src : Addr.t; dst : Addr.t; ttl : int; nonce : int; payload : Bitkit.Slice.t }

(* Process-wide, so two packets are never confused with each other no
   matter which router minted them. Only ever used for correlation keys
   (never serialised into reports or span output), so seeded runs stay
   reproducible. *)
let next_nonce = ref 0

let make ?(ttl = 64) ?nonce ~src ~dst payload =
  let nonce =
    match nonce with
    | Some n -> n
    | None ->
        incr next_nonce;
        !next_nonce
  in
  { src; dst; ttl; nonce; payload }

let decrement_ttl p = if p.ttl <= 1 then None else Some { p with ttl = p.ttl - 1 }

let size p = 12 + Bitkit.Slice.length p.payload

type frame = Hello_pdu of string | Routing_pdu of string | Data of t

let frame_size = function Hello_pdu s | Routing_pdu s -> String.length s | Data p -> size p
