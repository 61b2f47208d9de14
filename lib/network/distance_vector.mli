(** Distance-vector route computation (RIP-style Bellman–Ford) as a
    {!Routing.S}: split horizon with poisoned reverse, a vector every
    2 s, triggered updates batched for 50 ms, infinity = 16. *)

val factory : Routing.factory
(** The protocol, made once: every router declared with it shares one
    stack declaration. *)
