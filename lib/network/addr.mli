(** 32-bit network-layer addresses and prefixes.

    The paper's "Names" principle: the network {e layer} owns a namespace
    (addresses); its sublayers — neighbor determination, route
    computation, forwarding — all borrow this namespace rather than
    introducing their own. *)

type t = int
(** An IPv4-style 32-bit address held in an OCaml int. *)

val of_string : string -> t
(** Dotted quad, e.g. ["10.0.0.1"]. Raises [Invalid_argument] if
    malformed. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool

val node : int -> t
(** [node i] is the conventional address of simulated node [i]
    (10.0.x.y). *)

type prefix = { net : t; len : int }

val prefix : t -> int -> prefix
(** [prefix a len] normalises [a] to its first [len] bits. *)

val prefix_of_string : string -> prefix
(** ["10.0.0.0/8"] syntax. *)

val host : t -> prefix
(** The /32 prefix of one address. *)

val matches : prefix -> t -> bool
val pp_prefix : Format.formatter -> prefix -> unit
