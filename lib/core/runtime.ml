type key = ..

type alloc_spec = {
  al_top : Alloc.cell option;
  (* machine that handles [from_above] *)
  al_bottom : Alloc.cell option;
  (* machine that handles [from_below] *)
  al_app : Alloc.cell option;
  (* the [deliver] excursion above the stack *)
  al_wire : Alloc.cell option;
  (* the [transmit] excursion below the stack *)
  al_timer : key -> Alloc.cell option;
  (* owner of a firing timer *)
}

module Out = struct
  (* An action as its sublayer made it, named only by the type its
     reader takes: an [Up]'s indication, or a [Down]'s request. So no
     action is rebuilt, and a timer's boxed delay is read in place. *)
  type 'u up = Up_of : ('u, _, _) Machine.action -> 'u up [@@unboxed]
  type 'd made = Made : (_, 'd, _) Machine.action -> 'd made [@@unboxed]
  type key += No_key

  (* Every [Down], timer action and note a stack's levels make, each
     written once, where it is made, at an index every level above
     refers to: slot [j] is the action and, beside it, its timer's key
     ([No_key] for the others). Slots from [made] on are blank. *)
  type 'd store = { mutable made : int; mutable acts : 'd made array; mutable keys : key array }

  (* One level's entries: entry [i] is the store's slot [refs.(i)], or
     [held] for an [Up] kept in [ups.(i)]. Handing an entry on copies
     one int. *)
  type ('u, 'd) t = {
    mutable fill : int;
    mutable refs : int array;
    mutable ups : 'u up array;
    store : 'd store;
  }

  let held = -1
  let no_up = Up_of (Machine.Note "")
  let no_act = Made (Machine.Note "")
  let store () = { made = 0; acts = [||]; keys = [||] }
  let create store = { fill = 0; refs = [||]; ups = [||]; store }

  let widen a n blank =
    let a' = Array.make n blank in
    Array.blit a 0 a' 0 (Array.length a);
    a'

  let size a = max 16 (2 * Array.length a)

  (* A new entry of [b], at [r] in the store or [held]; its index. *)
  let[@inline] next b r =
    let i = b.fill in
    if i = Array.length b.refs then begin
      let n = size b.refs in
      b.refs <- widen b.refs n held;
      b.ups <- widen b.ups n no_up
    end;
    b.refs.(i) <- r;
    b.fill <- i + 1;
    i

  (* A new slot of [b]'s store holding [a], with an entry of [b] at it;
     the slot's index. *)
  let[@inline] slot b a =
    let s = b.store in
    let j = s.made in
    if j = Array.length s.acts then begin
      let n = size s.acts in
      s.acts <- widen s.acts n no_act;
      s.keys <- widen s.keys n No_key
    end;
    s.acts.(j) <- Made a;
    s.made <- j + 1;
    ignore (next b j);
    j

  let up b a =
    let i = next b held in
    b.ups.(i) <- Up_of a

  let put b a = ignore (slot b a)

  let timer b key a =
    let j = slot b a in
    b.store.keys.(j) <- key

  let up_at b i = match b.ups.(i) with Up_of (Machine.Up x) -> x | Up_of _ -> invalid_arg "Out.up_at"
  let[@inline] made_at b i = b.store.acts.(b.refs.(i))
  let[@inline] key_at b i = b.store.keys.(b.refs.(i))

  let pass b tag r =
    match b.store.acts.(r) with
    | Made (Machine.Note s) -> put b (Machine.Note (tag ^ s))
    | Made _ -> ignore (next b r)

  let release b start =
    for i = start to b.fill - 1 do
      if b.refs.(i) = held then b.ups.(i) <- no_up
    done;
    b.fill <- start

  (* Blank the store's slots from [made] on. *)
  let drop b made =
    let s = b.store in
    for j = made to s.made - 1 do
      s.acts.(j) <- no_act;
      s.keys.(j) <- No_key
    done;
    s.made <- made
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
  type scratch

  val scratch : unit -> scratch
  val out : scratch -> (up_ind, down_req) Out.t
  val reset : scratch -> unit
  val up_req : traced:bool -> scratch -> t -> up_req -> t
  val down_ind : traced:bool -> scratch -> t -> down_ind -> t
  val timer : traced:bool -> scratch -> t -> key -> t
end

module type ENDPOINT = sig
  type t
  type state
  type up_req
  type up_ind
  type down_req
  type down_ind

  val create :
    Sim.Engine.t ->
    ?tracer:Sim.Tracer.t ->
    ?alloc:alloc_spec ->
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

  (* One armed timer. Re-arming it reschedules this entry in place with
     the fire closure built when the entry was, so a re-arm allocates
     only the engine's event; cancelling or firing it removes the
     entry. *)
  type entry = { tm : key; mutable handle : Sim.Engine.handle; fire : unit -> unit }

  type t = {
    engine : Sim.Engine.t;
    (* The tracer and the track its [Note]s go on, when there is one. *)
    track : (Sim.Tracer.t * string) option;
    transmit : D.down_req -> unit;
    deliver : D.up_ind -> unit;
    alloc : alloc_spec option;
    (* The buffers its steps write into, shared with every endpoint of
       [D] on the same engine. *)
    scratch : D.scratch;
    mutable st : D.t;
    (* The armed timers, at most one entry per key: arming a timer that
       is already set re-arms it. An endpoint arms a handful
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
  let rec apply t (out : (_, _) Out.t) i =
    if i < out.fill && not t.halted then begin
      (if out.refs.(i) = Out.held then bracket t (fun a -> a.al_app) call t.deliver (Out.up_at out i)
       else
         match Out.made_at out i with
         | Made (Down r) -> bracket t (fun a -> a.al_wire) call t.transmit r
         | Made (Set_timer (_, delay)) -> set_timer t (Out.key_at out i) delay
         | Made (Cancel_timer _) -> cancel_timer t (Out.key_at out i)
         | Made (Note s) -> note t s
         | Made (Up _) -> invalid_arg "Runtime: an Up in the store");
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

module Level (M : Machine.S) = struct
  type t = M.t
  type up_req = M.up_req
  type up_ind = M.up_ind
  type down_req = M.down_req
  type down_ind = M.down_ind
  type key += Key of M.timer
  type scratch = (up_ind, down_req) Out.t

  let scratch_on = Out.create
  let scratch () = scratch_on (Out.store ())
  let out b = b
  let reset _ = ()

  (* [M]'s actions go to the buffer as [M] made them, each timer under
     this level's [Key]; a [Note] only when [traced]. *)
  let rec write ~traced b = function
    | [] -> ()
    | act :: acts ->
        (match act with
        | Machine.Up _ -> Out.up b act
        | Down _ -> Out.put b act
        | Set_timer (tm, _) | Cancel_timer tm -> Out.timer b (Key tm) act
        | Note _ -> if traced then Out.put b act);
        write ~traced b acts

  (* Keep the state [M]'s handler returns; its list goes to the buffer. *)
  let push ~traced b (m, acts) =
    write ~traced b acts;
    m

  let up_req ~traced b m r = push ~traced b (M.handle_up_req m r)
  let down_ind ~traced b m i = push ~traced b (M.handle_down_ind m i)

  let timer ~traced b m = function
    | Key tm -> push ~traced b (M.handle_timer m tm)
    | _ -> invalid_arg "Runtime.Level.timer: a timer of another level"
end

module Make (S : Machine.S) = Drive (Level (S))
