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

module Out = struct
  type kind = Up | Down | Set | Cancel | Note

  (* An action as its sublayer made it, kept for the one field a slot of
     its kind reads: an [Up]'s indication, a [Down]'s request, a
     [Set_timer]'s delay, already boxed. A slot never names the
     action's other type parameters, so no action is rebuilt. *)
  type 'u up = Up_of : ('u, _, _) Machine.action -> 'u up [@@unboxed]
  type 'd down = Down_of : (_, 'd, _) Machine.action -> 'd down [@@unboxed]
  type delay = Delay_of : (_, _, _) Machine.action -> delay [@@unboxed]

  (* What a stack's levels hand on without taking: [Down]s, timers and
     notes, each written once, where it is made, at an index every level
     above refers to. A timer type has no constant to clear a slot with,
     so the first timer written stands in; [timers] is empty until then. *)
  type ('d, 'tm) store = {
    mutable made : int;
    mutable made_kinds : kind array;
    mutable downs : 'd down array;
    mutable delays : delay array;
    mutable notes : string array;
    mutable timers : 'tm array;
    mutable no_timer : 'tm option;
  }

  (* One level's entries: entry [i] is of kind [kinds.(i)]; an [Up]'s
     action is [ups.(i)], anything else is at [refs.(i)] in the store.
     Handing an entry on copies two ints. *)
  type ('u, 'd, 'tm) t = {
    mutable fill : int;
    mutable kinds : kind array;
    mutable refs : int array;
    mutable ups : 'u up array;
    store : ('d, 'tm) store;
  }

  let no_up = Up_of (Machine.Note "")
  let no_down = Down_of (Machine.Note "")
  let no_delay = Delay_of (Machine.Note "")

  let store () =
    { made = 0; made_kinds = [||]; downs = [||]; delays = [||]; notes = [||]; timers = [||];
      no_timer = None }

  let create store = { fill = 0; kinds = [||]; refs = [||]; ups = [||]; store }

  let widen a n blank =
    let a' = Array.make n blank in
    Array.blit a 0 a' 0 (Array.length a);
    a'

  let size a = max 16 (2 * Array.length a)

  let grow b =
    let n = size b.kinds in
    b.kinds <- widen b.kinds n Up;
    b.refs <- widen b.refs n 0;
    b.ups <- widen b.ups n no_up

  (* The index of a new entry of kind [k] in [b]; [r] is where it is in
     the store, if it is there. *)
  let[@inline] next b k r =
    let i = b.fill in
    if i = Array.length b.kinds then grow b;
    b.kinds.(i) <- k;
    b.refs.(i) <- r;
    b.fill <- i + 1;
    i

  let grow_store s =
    let n = size s.made_kinds in
    s.made_kinds <- widen s.made_kinds n Up;
    s.downs <- widen s.downs n no_down;
    s.delays <- widen s.delays n no_delay;
    s.notes <- widen s.notes n "";
    match s.no_timer with Some tm -> s.timers <- widen s.timers n tm | None -> ()

  (* The index of a new entry of kind [k] in [b]'s store. *)
  let[@inline] make b k =
    let s = b.store in
    let j = s.made in
    if j = Array.length s.made_kinds then grow_store s;
    s.made_kinds.(j) <- k;
    s.made <- j + 1;
    j

  let first_timer s tm =
    s.no_timer <- Some tm;
    s.timers <- Array.make (Array.length s.made_kinds) tm

  let[@inline] timer_slot s j tm =
    (match s.no_timer with None -> first_timer s tm | Some _ -> ());
    s.timers.(j) <- tm

  let up b a = b.ups.(next b Up 0) <- Up_of a

  let down b a =
    let j = make b Down in
    b.store.downs.(j) <- Down_of a;
    ignore (next b Down j)

  let set b tm a =
    let j = make b Set in
    timer_slot b.store j tm;
    b.store.delays.(j) <- Delay_of a;
    ignore (next b Set j)

  let cancel b tm =
    let j = make b Cancel in
    timer_slot b.store j tm;
    ignore (next b Cancel j)

  let note b s =
    let j = make b Note in
    b.store.notes.(j) <- s;
    ignore (next b Note j)

  let pass b k r = ignore (next b k r)
  let up_at b i = match b.ups.(i) with Up_of (Machine.Up x) -> x | Up_of _ -> invalid_arg "Out.up_at"

  let down_at b i =
    match b.store.downs.(b.refs.(i)) with
    | Down_of (Machine.Down x) -> x
    | Down_of _ -> invalid_arg "Out.down_at"

  let timer_at b i = b.store.timers.(b.refs.(i))

  let delay_at b i =
    match b.store.delays.(b.refs.(i)) with
    | Delay_of (Machine.Set_timer (_, d)) -> d
    | Delay_of _ -> invalid_arg "Out.delay_at"

  let note_at b i = b.store.notes.(b.refs.(i))

  let release b start =
    for i = start to b.fill - 1 do
      match b.kinds.(i) with Up -> b.ups.(i) <- no_up | Down | Set | Cancel | Note -> ()
    done;
    b.fill <- start

  let drop b made =
    let s = b.store in
    for j = made to s.made - 1 do
      match (s.made_kinds.(j), s.no_timer) with
      | Down, _ -> s.downs.(j) <- no_down
      | Set, Some tm ->
          s.timers.(j) <- tm;
          s.delays.(j) <- no_delay
      | Cancel, Some tm -> s.timers.(j) <- tm
      | Note, _ -> s.notes.(j) <- ""
      | (Up | Set | Cancel), _ -> ()
    done;
    s.made <- made

  let rec push_list ~traced b tag = function
    | [] -> ()
    | act :: acts ->
        (match act with
        | Machine.Up _ -> up b act
        | Machine.Down _ -> down b act
        | Machine.Set_timer (tm, _) -> set b (tag tm) act
        | Machine.Cancel_timer tm -> cancel b (tag tm)
        | Machine.Note s -> if traced then note b s);
        push_list ~traced b tag acts
end

(* The values made for the last [kept] keys, newest first: a table that
   outlives its keys keeps only a few of them. *)
let kept = 8

let remember same make =
  let made = Atomic.make [] in
  let rec find k = function
    | [] -> raise_notrace Not_found
    | (k', v) :: rest -> if same k' k then v else find k rest
  in
  let rec first n = function x :: rest when n > 0 -> x :: first (n - 1) rest | _ -> [] in
  fun k ->
    match find k (Atomic.get made) with
    | v -> v
    | exception Not_found ->
        let v = make k in
        let rec add () =
          let old = Atomic.get made in
          if not (Atomic.compare_and_set made old ((k, v) :: first (kept - 1) old)) then add ()
        in
        add ();
        v

module type DRIVEN = sig
  type t
  type up_req
  type up_ind
  type down_req
  type down_ind
  type timer
  type scratch

  val scratch : unit -> scratch
  val out : scratch -> (up_ind, down_req, timer) Out.t
  val reset : scratch -> unit
  val up_req : traced:bool -> scratch -> t -> up_req -> t
  val down_ind : traced:bool -> scratch -> t -> down_ind -> t
  val timer : traced:bool -> scratch -> t -> timer -> t
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

  type t = {
    engine : Sim.Engine.t;
    (* The tracer and the track its [Note]s go on, when there is one. *)
    track : (Sim.Tracer.t * string) option;
    transmit : D.down_req -> unit;
    deliver : D.up_ind -> unit;
    alloc : D.timer alloc_spec option;
    (* The buffers its steps write into, shared with every endpoint of
       [D] on the same engine. *)
    scratch : D.scratch;
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

  (* One scratch per engine, shared by its endpoints; kept by the
     engine's id, so the table keeps no engine alive. *)
  let scratch = remember Int.equal (fun _ -> D.scratch ())

  let create engine ?tracer ?alloc ~name ~transmit ~deliver st =
    let track = match tracer with None -> None | Some tr -> Some (tr, name) in
    { engine; track; alloc; transmit; deliver; scratch = scratch (Sim.Engine.id engine); st;
      timers = []; halted = false }

  let state t = t.st
  let traced t = Option.is_some t.track

  let note t msg =
    match t.track with
    | None -> ()
    | Some (tr, track) ->
        Sim.Tracer.instant tr ~at:(Sim.Engine.now t.engine) ~track ~sublayer:"note" msg

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

  (* The one applier: a step's segment, from [i] to the buffer's fill,
     in order. A callback may halt the runtime mid-segment (a delivery
     that aborts the connection); the rest is then dropped, so a halted
     runtime arms no timer and transmits nothing. *)
  let rec apply t out i =
    if i < out.Out.fill && not t.halted then begin
      (match out.kinds.(i) with
      | Out.Up -> bracket t (fun a -> a.al_app) call t.deliver (Out.up_at out i)
      | Out.Down -> bracket t (fun a -> a.al_wire) call t.transmit (Out.down_at out i)
      | Out.Set -> set_timer t (Out.timer_at out i) (Out.delay_at out i)
      | Out.Cancel -> cancel_timer t (Out.timer_at out i)
      | Out.Note -> note t (Out.note_at out i));
      apply t out (i + 1)
    end

  and set_timer t tm delay =
    match find tm t.timers with
    | e ->
        Sim.Engine.cancel e.handle;
        e.handle <- Sim.Engine.schedule t.engine ~after:delay e.fire
    | exception Not_found ->
        let fire () = fire t tm in
        let handle = Sim.Engine.schedule t.engine ~after:delay fire in
        t.timers <- { tm; handle; fire } :: t.timers

  and fire t tm =
    (match find tm t.timers with
    | e -> t.timers <- without e t.timers
    | exception Not_found -> ());
    if not t.halted then
      match t.alloc with
      | None -> on_timer t tm
      | Some a -> Alloc.bracket (a.al_timer tm) on_timer t tm

  (* One step: [D] writes its segment at the end of its buffer, the
     applier takes it, and the segment and what the step put in the
     store are released, also when a step or a callback raises; a raise
     also empties the buffers below, which only a step in progress
     fills. A step that runs meanwhile (one a callback re-enters)
     writes after them and is released before control comes back, so
     the segment still ends at the buffer's fill. *)
  and step : 'x. t -> (traced:bool -> D.scratch -> D.t -> 'x -> D.t) -> 'x -> unit =
   fun t f x ->
    let out = D.out t.scratch in
    let start = out.Out.fill and made = out.store.made in
    match
      let st = f ~traced:(traced t) t.scratch t.st x in
      if st != t.st then t.st <- st;
      apply t out start
    with
    | () ->
        Out.release out start;
        Out.drop out made
    | exception e ->
        Out.release out start;
        Out.drop out made;
        D.reset t.scratch;
        raise e

  and on_timer t tm = step t D.timer tm

  let on_up_req t req = step t D.up_req req
  let on_down_ind t ind = step t D.down_ind ind
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
  type t = S.t
  type up_req = S.up_req
  type up_ind = S.up_ind
  type down_req = S.down_req
  type down_ind = S.down_ind
  type timer = S.timer
  type scratch = (up_ind, down_req, timer) Out.t

  let scratch () = Out.create (Out.store ())
  let out b = b
  let reset _ = ()

  (* Keep the state the handler returns; its list goes to the buffer. *)
  let push ~traced b (st, acts) =
    Out.push_list ~traced b Fun.id acts;
    st

  let up_req ~traced b st req = push ~traced b (S.handle_up_req st req)
  let down_ind ~traced b st ind = push ~traced b (S.handle_down_ind st ind)
  let timer ~traced b st tm = push ~traced b (S.handle_timer st tm)
end)
