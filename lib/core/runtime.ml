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

type ('state, 'acts, 'step) shape =
  | In_place : ('state, 'acts, 'acts) shape
  | Pair : ('state, 'acts, 'state * 'acts) shape

module type DRIVEN = sig
  type t
  type up_req
  type up_ind
  type down_req
  type down_ind
  type timer
  type step

  val shape : (t, (up_ind, down_req, timer) Machine.action list, step) shape
  val up_req : traced:bool -> t -> up_req -> step
  val down_ind : traced:bool -> t -> down_ind -> step
  val timer : traced:bool -> t -> timer -> step
end

module type ENDPOINT = sig
  type t
  type state
  type up_req
  type up_ind
  type down_req
  type down_ind
  type timer

  val create :
    Sim.Engine.t ->
    ?tracer:Sim.Tracer.t ->
    ?alloc:timer alloc_spec ->
    name:string ->
    transmit:(down_req -> unit) ->
    deliver:(up_ind -> unit) ->
    state ->
    t

  val state : t -> state
  val from_above : t -> up_req -> unit
  val from_below : t -> down_ind -> unit
  val halt : t -> unit
  val halted : t -> bool
  val active_timers : t -> int
end

module Drive (D : DRIVEN) = struct
  type state = D.t
  type up_req = D.up_req
  type up_ind = D.up_ind
  type down_req = D.down_req
  type down_ind = D.down_ind
  type timer = D.timer

  (* One armed timer. Re-arming it reschedules this entry in place with
     the fire closure built when the entry was, so a re-arm allocates
     only the engine's event; cancelling or firing it removes the
     entry. *)
  type entry = { tm : D.timer; mutable handle : Sim.Engine.handle; fire : unit -> unit }
  type acts = (D.up_ind, D.down_req, D.timer) Machine.action list

  type t = {
    engine : Sim.Engine.t;
    tracer : Sim.Tracer.t option;
    name : string;
    transmit : D.down_req -> unit;
    deliver : D.up_ind -> unit;
    alloc : D.timer alloc_spec option;
    mutable st : D.t;
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
  let traced t = Option.is_some t.tracer

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

  (* Keep the state a step returns, if it returns one, and apply its
     actions. *)
  and finish : type p. (D.t, acts, p) shape -> t -> p -> unit =
   fun shape t step ->
    match shape with
    | In_place -> apply t step
    | Pair ->
        let st, acts = step in
        t.st <- st;
        apply t acts

  and on_timer t tm = finish D.shape t (D.timer ~traced:(traced t) t.st tm)

  let on_up_req t req = finish D.shape t (D.up_req ~traced:(traced t) t.st req)
  let on_down_ind t ind = finish D.shape t (D.down_ind ~traced:(traced t) t.st ind)
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

module Make (S : Machine.S) = Drive (struct
  include S

  (* A step is the pair the sublayer's handler returns. *)
  type step = S.t * (S.up_ind, S.down_req, S.timer) Machine.action list

  let shape = Pair
  let up_req ~traced:_ t req = S.handle_up_req t req
  let down_ind ~traced:_ t ind = S.handle_down_ind t ind
  let timer ~traced:_ t tm = S.handle_timer t tm
end)
