open Machine

module type SUBLAYER = sig
  include Machine.S

  val scope : string
end

module type TAP = sig
  val name : string

  type up_req
  type up_ind
  type t = { obs_req : up_req -> unit; obs_ind : up_ind -> unit }

  val inert : t
end

type key = Runtime.key = ..
type 'p probe = ?alloc:Alloc.pair -> Monitor.Runtime.t option -> conn:string -> 'p

module type PROBE = sig
  type req
  type ind
  type t = { obs_req : req -> unit; obs_ind : ind -> unit }

  val inert : t

  include
    Machine.S
      with type t := t
       and type up_req = req
       and type up_ind = ind
       and type down_req = req
       and type down_ind = ind
       and type timer = Machine.Nothing.t

  val make : (Monitor.Runtime.t -> conn:string -> (req -> unit) * (ind -> unit)) -> t probe
  val opaque : Monitor.Spec.t -> req_len:(req -> int) -> ind_len:(ind -> int) -> t probe
  val cells : t probe
end

module Tap (M : sig
  type req
  type ind
end) =
struct
  type req = M.req
  type ind = M.ind

  include Machine.Probe (struct
    include M

    let name = "mon"
  end)

  let nop _ = ()

  (* The policy compose.mli states: inert, or the monitor's observers
     (no-ops without one), each crossing into its destination's cell
     before it observes. *)
  let make observe ?alloc mon ~conn =
    match (mon, alloc) with
    | None, (None | Some (None, None)) -> inert
    | _ -> (
        let obs_req, obs_ind = match mon with Some m -> observe m ~conn | None -> (nop, nop) in
        match alloc with
        | None | Some (None, None) -> { obs_req; obs_ind }
        | Some (above, below) ->
            { obs_req =
                (fun r ->
                  Alloc.cross below;
                  obs_req r);
              obs_ind =
                (fun i ->
                  Alloc.cross above;
                  obs_ind i) })

  let opaque spec ~req_len ~ind_len =
    make (fun mon ~conn ->
        let inst = Monitor.Runtime.attach mon ~key:conn spec in
        let down = Monitor.Spec.msg_id spec Monitor.Spec.Down "pdu"
        and up = Monitor.Spec.msg_id spec Monitor.Spec.Up "pdu" in
        ( (fun r -> Monitor.Runtime.observe inst down ~a:(req_len r) ~b:0),
          fun i -> Monitor.Runtime.observe inst up ~a:(ind_len i) ~b:0 ))

  let unobserved _ ~conn:_ = (nop, nop)
  let cells ?alloc _ ~conn = make unobserved ?alloc None ~conn
end

module type STACK = sig
  val name : string

  type t
  type up_req
  type up_ind
  type down_req
  type down_ind
  type parts

  val scopes : string array
  val owner : key -> int
  val build : Alloc.cell option array -> Monitor.Runtime.t option -> conn:string -> parts -> t

  include
    Runtime.DRIVEN
      with type t := t
       and type up_req := up_req
       and type up_ind := up_ind
       and type down_req := down_req
       and type down_ind := down_ind

  val scratch_on : down_req Runtime.Out.store -> scratch
end

module Last (M : SUBLAYER) = struct
  include Runtime.Level (M)

  let name = M.name

  type parts = M.t

  let scopes = [| M.scope |]
  let owner _ = 0
  let build _ _ ~conn:_ m = m
end

module Seam
    (U : SUBLAYER)
    (P : TAP with type up_req = U.down_req and type up_ind = U.down_ind)
    (L : STACK with type up_req = U.down_req and type up_ind = U.down_ind) =
struct
  module Out = Runtime.Out

  let name = U.name ^ "/" ^ P.name ^ "/" ^ L.name

  type up_req = U.up_req
  type up_ind = U.up_ind
  type down_req = L.down_req
  type down_ind = L.down_ind
  type key += Key of U.timer
  type parts = U.t * P.t probe * L.parts

  (* The level's state, updated in place by every step. [l] is written
     only when [L] is a {!Last}, whose steps return its next state. *)
  type t = { mutable u : U.t; tap : P.t; mutable l : L.t }

  (* The buffer this level writes to and the one [L] writes to, over
     the levels below's, all on one store. *)
  type scratch = {
    out : (up_ind, down_req) Out.t;
    below : (L.up_ind, L.down_req) Out.t;
    lower : L.scratch;
  }

  let scratch_on store =
    let lower = L.scratch_on store in
    { out = Out.create store; below = L.out lower; lower }

  let scratch () = scratch_on (Out.store ())
  let out sc = sc.out

  let reset sc =
    Out.release sc.below 0;
    L.reset sc.lower

  (* [U]'s index in [scopes]; [L]'s top sublayer is just below it. *)
  let at = Array.length L.scopes
  let scopes = Array.append L.scopes [| U.scope |]
  let owner = function Key _ -> at | tm -> L.owner tm

  let build cells mon ~conn (u, probe, l) =
    let l = L.build cells mon ~conn l in
    let alloc = if Array.length cells = 0 then None else Some (cells.(at), cells.(at - 1)) in
    { u; tap = probe ?alloc mon ~conn; l }

  let upper t = t.u
  let lower t = t.l

  (* A [Note] carries the prefixes a nesting of [Machine.Stack]s with the
     probe a level of its own gives it, built once here. *)
  let upper_tag = U.name ^ ": "
  let lower_tag = P.name ^ "/" ^ L.name ^ ": " ^ L.name ^ ": "

  (* [L] has just written [below] from [i] on: the tap sees every [Up]
     in it now, before [U] takes the first, as a probe level between the
     two would have. *)
  let rec arrive (tap : P.t) (below : (_, _) Out.t) i =
    if i < below.fill then begin
      if below.refs.(i) = Out.held then tap.obs_ind (Out.up_at below i);
      arrive tap below (i + 1)
    end

  (* What begins a step of [L]. *)
  type _ input = Req : L.up_req input | Ind : L.down_ind input | Fire : key input

  (* Route the two sides' actions across the boundary into [sc.out]: an
     upper [Down r] becomes a step of [L], whose segment is taken in
     full before [U] takes any of its [Up]s; a lower [Up i] becomes
     [U.handle_down_ind]. What a crossing triggers is routed before the
     rest of the list or segment it interrupted, so the order is
     [Machine.Stack]'s. [U]'s actions are written as [U] made them, a
     timer under this level's [Key]; [L]'s are handed on by their slot
     in the store, a timer under the key [L] gave it. A timer's action
     carries no request, so bound with [as] it has the store's request
     type and goes in as [U] made it. A [Note] goes on with its prefix
     only when [traced]; otherwise [L] wrote none and [U]'s stop here. *)
  let rec drain_upper traced sc st = function
    | [] -> ()
    | act :: acts ->
        (match act with
        | Up _ -> Out.up sc.out act
        | Down r ->
            if st.tap != P.inert then st.tap.obs_req r;
            cross traced sc st Req r
        | (Set_timer (tm, _) | Cancel_timer tm) as act -> Out.timer sc.out (Key tm) act
        | Note s -> if traced then Out.put sc.out (Note (upper_tag ^ s)));
        drain_upper traced sc st acts

  and drain_lower traced sc st (below : (_, _) Out.t) i =
    if i < below.fill then begin
      (let r = below.refs.(i) in
       if r = Out.held then begin
         let u, acts = U.handle_down_ind st.u (Out.up_at below i) in
         if u != st.u then st.u <- u;
         drain_upper traced sc st acts
       end
       else Out.pass sc.out lower_tag r);
      drain_lower traced sc st below (i + 1)
    end

  (* One step of [L] on [x]: [L] writes its segment at the end of its
     buffer, the tap sees it, this level drains it, and it is released.
     A crossing made while it drains writes after it and is released
     before it returns, so the segment ends at the buffer's fill
     throughout. A raise leaves it to the runtime, which empties the
     buffers below the top ([reset]). *)
  and cross : type x. bool -> scratch -> t -> x input -> x -> unit =
   fun traced sc st input x ->
    let below = sc.below in
    let start = below.fill in
    let l =
      match input with
      | Req -> L.up_req ~traced sc.lower st.l x
      | Ind -> L.down_ind ~traced sc.lower st.l x
      | Fire -> L.timer ~traced sc.lower st.l x
    in
    if l != st.l then st.l <- l;
    if st.tap != P.inert then arrive st.tap below start;
    drain_lower traced sc st below start;
    Out.release below start

  let from_upper traced sc st (u, acts) =
    if u != st.u then st.u <- u;
    drain_upper traced sc st acts;
    st

  let up_req ~traced sc st r = from_upper traced sc st (U.handle_up_req st.u r)

  let down_ind ~traced sc st i =
    cross traced sc st Ind i;
    st

  let timer ~traced sc st = function
    | Key tm -> from_upper traced sc st (U.handle_timer st.u tm)
    | tm ->
        cross traced sc st Fire tm;
        st
end

let memo declare = Runtime.remember ( == ) declare

module Run (S : STACK) = struct
  include Runtime.Drive (S)

  let create engine ~ins ~name ~transmit ~deliver parts =
    let cells, alloc =
      if not (Instrument.attributed ins) then ([||], None)
      else
        let cells = Array.map (Instrument.alloc_cell ins) S.scopes in
        ( cells,
          Some
            { Runtime.al_top = cells.(Array.length cells - 1); al_bottom = cells.(0);
              al_app = Instrument.alloc_cell ins "app"; al_wire = Instrument.alloc_cell ins "wire";
              al_timer = (fun tm -> cells.(S.owner tm)) } )
    in
    create engine ?tracer:ins.Instrument.tracer ?alloc ~name ~transmit ~deliver
      (S.build cells ins.Instrument.monitors ~conn:name parts)
end
