type 'timer alloc_spec = {
  al_top : Alloc.cell option;
  (* machine that handles [from_above] *)
  al_bottom : Alloc.cell option;
  (* machine that handles [from_below] *)
  al_app : Alloc.cell option;
  (* the [deliver] excursion above the stack *)
  al_wire : Alloc.cell option;
  (* the [transmit] excursion below the stack *)
  al_timer : 'timer -> Alloc.cell option;
  (* owner of a firing timer *)
}

module Make (S : Machine.S) = struct
  (* One armed timer. Re-arming it reschedules this entry in place with
     the fire closure built when the entry was, so a re-arm allocates
     only the engine's event; cancelling or firing it removes the
     entry. *)
  type entry = { tm : S.timer; mutable handle : Sim.Engine.handle; fire : unit -> unit }

  type t = {
    engine : Sim.Engine.t;
    tracer : Sim.Tracer.t option;
    name : string;
    transmit : S.down_req -> unit;
    deliver : S.up_ind -> unit;
    alloc : S.timer alloc_spec option;
    mutable st : S.t;
    (* The armed timers, at most one entry per timer value: arming a
       timer that is already set re-arms it. An endpoint arms a handful
       at a time, so a list searched with structural equality is short
       and deterministic. *)
    mutable timers : entry list;
    (* A halted runtime is inert: the link below it died (tunnel abort),
       so nothing must re-arm timers or transmit into the void. *)
    mutable halted : bool;
  }

  let create engine ?tracer ?alloc ~name ~transmit ~deliver st =
    { engine; tracer; alloc; name; transmit; deliver; st; timers = []; halted = false }

  let state t = t.st

  let note t msg =
    match t.tracer with
    | None -> ()
    | Some tr ->
        Sim.Tracer.instant tr ~at:(Sim.Engine.now t.engine) ~track:t.name ~sublayer:"note" msg

  let rec find tm = function
    | [] -> raise_notrace Not_found
    | e :: rest -> if e.tm = tm then e else find tm rest

  let[@tail_mod_cons] rec without e = function
    | [] -> []
    | x :: rest -> if x == e then rest else x :: without e rest

  let cancel_timer t tm =
    match find tm t.timers with
    | e ->
        Sim.Engine.cancel e.handle;
        t.timers <- without e t.timers
    | exception Not_found -> ()

  (* Bracket an excursion out of the stack (app delivery, wire transmit)
     or into it (the entry points below) so allocation between two probe
     crossings lands on the machine actually running. Reentrancy — e.g.
     delivery calling back into [from_above] — nests via the cell stack;
     [Alloc.bracket] keeps it balanced when a step or callback raises,
     and calls [f a b] straight through for a runtime without cells. *)
  let bracket t cell f a b =
    match t.alloc with
    | None -> f a b
    | Some spec -> Alloc.bracket (cell spec) f a b

  let call f x = f x

  (* A callback may halt the runtime mid-list (a delivery that aborts the
     connection); the rest of the list is then dropped, so a halted
     runtime arms no timer and transmits nothing. *)
  let rec apply t = function
    | [] -> ()
    | act :: acts ->
        apply_one t act;
        if not t.halted then apply t acts

  and apply_one t = function
    | Machine.Up ind -> bracket t (fun a -> a.al_app) call t.deliver ind
    | Machine.Down req -> bracket t (fun a -> a.al_wire) call t.transmit req
    | Machine.Note msg -> note t msg
    | Machine.Cancel_timer tm -> cancel_timer t tm
    | Machine.Set_timer (tm, delay) -> (
        match find tm t.timers with
        | e ->
            Sim.Engine.cancel e.handle;
            e.handle <- Sim.Engine.schedule t.engine ~after:delay e.fire
        | exception Not_found ->
            let fire () = fire t tm in
            let handle = Sim.Engine.schedule t.engine ~after:delay fire in
            t.timers <- { tm; handle; fire } :: t.timers)

  and fire t tm =
    (match find tm t.timers with
    | e -> t.timers <- without e t.timers
    | exception Not_found -> ());
    if not t.halted then
      match t.alloc with
      | None -> on_timer t tm
      | Some a -> Alloc.bracket (a.al_timer tm) on_timer t tm

  and on_timer t tm =
    let st, acts = S.handle_timer t.st tm in
    t.st <- st;
    apply t acts

  let on_up_req t req =
    let st, acts = S.handle_up_req t.st req in
    t.st <- st;
    apply t acts

  let on_down_ind t ind =
    let st, acts = S.handle_down_ind t.st ind in
    t.st <- st;
    apply t acts

  let from_above t req = if not t.halted then bracket t (fun a -> a.al_top) on_up_req t req
  let from_below t ind = if not t.halted then bracket t (fun a -> a.al_bottom) on_down_ind t ind

  let halt t =
    if not t.halted then begin
      t.halted <- true;
      List.iter (fun e -> Sim.Engine.cancel e.handle) t.timers;
      t.timers <- [];
      note t "halted"
    end

  let halted t = t.halted
  let active_timers t = List.length t.timers
end
