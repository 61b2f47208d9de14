(** The PDUs of the network sublayers of Figure 4: neighbour
    determination's HELLO and each route-computation mechanism's own
    advertisement. Each sublayer reads and writes only its own PDU, and
    the router carries them as distinct frame kinds (test T3).

    Each PDU has one writer and one reader. [encode_x] makes big-endian
    stores into a buffer sized up front, every field (counts included)
    masked to its width. [decode_x] checks the length before every load
    and before building a list, so a count the buffer cannot hold costs
    no allocation. It returns [None] on a short or wrong-magic PDU,
    ignores bytes past the PDU and never raises. *)

val encode_hello : Addr.t -> string
(** [magic:8 self:32]. *)

val decode_hello : string -> Addr.t option

val encode_dv : (Addr.t * int) list -> string
(** Distance vector: [magic:8 count:16], then [dst:32 metric:8] per
    entry. *)

val decode_dv : string -> (Addr.t * int) list option

type lsp = { origin : Addr.t; seq : int; adj : Addr.t list }

val encode_lsp : lsp -> string
(** Link state: [magic:8 origin:32 seq:32 count:8], then [adj:32] per
    neighbour. *)

val decode_lsp : string -> lsp option

val encode_pv : (Addr.t * Addr.t list) list -> string
(** Path vector: [magic:8 count:16], then [dst:32 len:8] and [len] ×
    [addr:32] per entry (the path, next hop first). *)

val decode_pv : string -> (Addr.t * Addr.t list) list option
