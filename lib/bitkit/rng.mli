(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic component in the repository draws randomness through
    this module so that simulations, tests and benchmarks are exactly
    reproducible from a seed. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val split : t -> t
(** [split t] derives a new, statistically independent stream from [t],
    advancing [t]. Useful to give each simulated node its own stream. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val bits : t -> int -> int
(** [bits t n] is a uniform [n]-bit non-negative integer, [0 <= n <= 62]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). [bound] must be positive. *)

val bytes : t -> int -> string
(** [bytes t n] is [n] uniform bytes, one draw each: the same string, and
    the same generator state after, as
    [String.init n (fun _ -> Char.chr (int t 256))], without a closure
    call or a division per byte. *)

val float : t -> float
(** Uniform float in [0, 1). *)

val bool : t -> bool

val coin : t -> float -> bool
(** [coin t p] is [true] with probability [p]. *)

val pick : t -> 'a array -> 'a
(** Uniform choice from a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val exponential : t -> float -> float
(** [exponential t rate] samples an exponential inter-arrival time. *)
