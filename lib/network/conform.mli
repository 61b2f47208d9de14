(** Conformance observation for the router⇄FIB T2 interface (the only
    coupling between route computation and forwarding). Forwarding
    calls these closures at its FIB call sites, inside the sublayer
    whose table the FIB is; with no registry they are no-ops, one record
    every unmonitored router shares, so a monitored and an unmonitored
    router behave identically.

    The spec ({!Monitor.Specs.fib}) tracks the table size through
    observed writes and flags a forwarding hit claimed against an empty
    table, or a remove of a present route when nothing was installed. *)

type fib_probe = {
  obs_insert : fresh:bool -> unit;
      (** [fresh] — the prefix was not previously present. *)
  obs_remove : removed:bool -> unit;
      (** [removed] — the prefix was present and is now gone. *)
  obs_lookup : hit:bool -> unit;
}

val fib : Monitor.Runtime.t option -> key:string -> fib_probe
