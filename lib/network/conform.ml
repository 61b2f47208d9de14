(* Conformance observation for the route-computation⇄forwarding T2
   interface. The FIB is forwarding's own table, so whether a write was
   fresh or a lookup hit is known only inside forwarding: the probe is a
   record of observation closures forwarding invokes at its own call
   sites, route-computation writes (install/uninstall) and data-path
   reads (lookup). *)

type fib_probe = {
  obs_insert : fresh:bool -> unit;
  obs_remove : removed:bool -> unit;
  obs_lookup : hit:bool -> unit;
}

let fib mon ~key =
  match mon with
  | None ->
      {
        obs_insert = (fun ~fresh:_ -> ());
        obs_remove = (fun ~removed:_ -> ());
        obs_lookup = (fun ~hit:_ -> ());
      }
  | Some reg ->
      let spec = Monitor.Specs.fib in
      let inst = Monitor.Runtime.attach reg ~key spec in
      let insert = Monitor.Spec.msg_id spec Monitor.Spec.Down "insert"
      and remove = Monitor.Spec.msg_id spec Monitor.Spec.Down "remove"
      and lookup = Monitor.Spec.msg_id spec Monitor.Spec.Up "lookup" in
      {
        obs_insert =
          (fun ~fresh ->
            Monitor.Runtime.observe inst insert ~a:(Bool.to_int fresh) ~b:0);
        obs_remove =
          (fun ~removed ->
            Monitor.Runtime.observe inst remove ~a:(Bool.to_int removed) ~b:0);
        obs_lookup =
          (fun ~hit ->
            Monitor.Runtime.observe inst lookup ~a:(Bool.to_int hit) ~b:0);
      }
