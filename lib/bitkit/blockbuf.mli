(** An append-only byte store whose blocks never move: the host's receive
    store.

    A [Buffer] doubles by copying everything it holds into a new array,
    so a 64 KiB stream moves about as many bytes again and allocates
    twice its size. Here a full block stays where it is and the next
    delivery goes on in a new block: the first block is 256 bytes,
    allocated by the first non-empty {!add}; each new block is at least
    as large as all the bytes stored before it (so there are O(log n)
    of them) and brings the capacity to the smallest power-of-two
    multiple of 256 that holds the bytes so far, so a power-of-two
    stream fills its blocks exactly. Growth copies no byte.

    {!clear} empties the store but keeps its blocks, which later
    deliveries fill again in order, as [Buffer.clear] keeps its
    capacity. *)

type t

val create : unit -> t
(** An empty store, holding no block yet. *)

val add : t -> Slice.t -> unit
(** Append the viewed bytes: the one counted copy, charged to
    {!Slice.copied_bytes} exactly as {!Slice.add_to_buffer} charges it
    (the slice's length, also when it is empty). *)

val length : t -> int
(** Bytes stored, in O(1). *)

val contents : t -> string
(** Every stored byte in order, concatenated into one new string. Not
    charged to {!Slice.copied_bytes} ([Buffer.contents] was not): the
    accounting counts the copies out of received buffers, and {!add}
    already charged these bytes. *)

val equal_string : t -> string -> bool
(** [equal_string t s] holds exactly when [contents t = s]. Every byte
    is compared where it is stored, eight at a time, with no allocation. *)

val clear : t -> unit
(** Forget the contents; the blocks stay for the next deliveries. *)
