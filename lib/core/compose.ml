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

type key = ..
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
  type timer
  type parts
  type step

  val scopes : string array
  val key : timer -> key
  val owner : key -> int
  val build : Alloc.cell option array -> Monitor.Runtime.t option -> conn:string -> parts -> t
  val shape : (t, (up_ind, down_req, timer) action list, step) Runtime.shape
  val up_req : traced:bool -> t -> up_req -> step
  val down_ind : traced:bool -> t -> down_ind -> step
  val fire : traced:bool -> t -> key -> step
end

module Last (M : SUBLAYER) = struct
  include M

  type key += Key of M.timer
  type parts = M.t

  (* A step is the pair [M]'s handler returns: the seam above walks its
     list as it is, and tags a timer when it passes one on. *)
  type step = M.t * (M.up_ind, M.down_req, M.timer) action list

  let shape = Runtime.Pair
  let scopes = [| M.scope |]
  let key tm = Key tm
  let owner _ = 0
  let build _ _ ~conn:_ m = m
  let up_req ~traced:_ m r = M.handle_up_req m r
  let down_ind ~traced:_ m i = M.handle_down_ind m i

  let fire ~traced:_ m = function
    | Key tm -> M.handle_timer m tm
    | _ -> invalid_arg "Compose.Last.fire: a timer of another level"
end

module Seam
    (U : SUBLAYER)
    (P : TAP with type up_req = U.down_req and type up_ind = U.down_ind)
    (L : STACK with type up_req = U.down_req and type up_ind = U.down_ind) =
struct
  let name = U.name ^ "/" ^ P.name ^ "/" ^ L.name

  type up_req = U.up_req
  type up_ind = U.up_ind
  type down_req = L.down_req
  type down_ind = L.down_ind
  type key += Key of U.timer
  type timer = key
  type parts = U.t * P.t probe * L.parts

  (* The level's state, updated in place by every step. [l] is written
     only when [L] is a {!Last}, whose steps return its next state. *)
  type t = { mutable u : U.t; tap : P.t; mutable l : L.t }

  (* A step's actions; the state stays where it is. *)
  type step = (up_ind, down_req, timer) action list

  let shape = Runtime.In_place

  (* [U]'s index in [scopes]; [L]'s top sublayer is just below it. *)
  let at = Array.length L.scopes
  let scopes = Array.append L.scopes [| U.scope |]
  let key tm = tm
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

  (* A list [L] returns. *)
  type lower = (L.up_ind, L.down_req, L.timer) action list

  (* What is left once the list being drained runs out: the rest of the
     other side's list, saved at the crossing that interrupted it. A
     crossing that ends its list saves nothing. *)
  type rest =
    | Done
    | Upper_rest of (U.up_ind, U.down_req, U.timer) action list * rest
    | Lower_rest of lower * rest

  (* [L] has just returned [acts]: the tap sees every [Up] in it now,
     before [U] takes the first, as a probe level between the two would
     have. *)
  let rec arrive (tap : P.t) = function
    | [] -> ()
    | Up i :: acts ->
        tap.obs_ind i;
        arrive tap acts
    | _ :: acts -> arrive tap acts

  (* [L]'s step [res], begun by a crossing or an input from below: keep
     the state it returns, if it returns one, and show its list to the
     tap. *)
  let lower_step : type p. (L.t, lower, p) Runtime.shape -> t -> p -> lower =
   fun shape st res ->
    let acts : lower =
      match shape with
      | In_place -> res
      | Pair ->
          let l, acts = res in
          st.l <- l;
          acts
    in
    if st.tap != P.inert then arrive st.tap acts;
    acts

  (* Route the two sides' action streams across the boundary: an upper
     [Down r] becomes a step of [L], which drains in full before [U]
     takes any of its [Up]s; a lower [Up i] becomes [U.handle_down_ind].
     An action a crossing triggers is routed before the rest of the list
     it interrupted, so the order is [Machine.Stack]'s. A timer leaves
     tagged once: [U]'s with this level's [Key], [L]'s as [L.key] tags
     it. A [Note] leaves with its prefix only when [traced]; otherwise it
     goes no further. The output is built front to back
     ([tail_mod_cons]). *)
  let[@tail_mod_cons] rec drain_upper traced st acts k =
    match acts with
    | [] -> resume traced st k
    | Up i :: acts -> Up i :: drain_upper traced st acts k
    | Down r :: acts ->
        if st.tap != P.inert then st.tap.obs_req r;
        let lower = lower_step L.shape st (L.up_req ~traced st.l r) in
        drain_lower traced st lower (match acts with [] -> k | _ -> Upper_rest (acts, k))
    | Set_timer (tm, d) :: acts -> Set_timer (Key tm, d) :: drain_upper traced st acts k
    | Cancel_timer tm :: acts -> Cancel_timer (Key tm) :: drain_upper traced st acts k
    | Note s :: acts ->
        if traced then Note (upper_tag ^ s) :: drain_upper traced st acts k
        else drain_upper traced st acts k

  and[@tail_mod_cons] drain_lower traced st acts k =
    match acts with
    | [] -> resume traced st k
    | Up i :: acts ->
        let u, upper = U.handle_down_ind st.u i in
        st.u <- u;
        drain_upper traced st upper (match acts with [] -> k | _ -> Lower_rest (acts, k))
    | Down r :: acts -> Down r :: drain_lower traced st acts k
    | Set_timer (tm, d) :: acts -> Set_timer (L.key tm, d) :: drain_lower traced st acts k
    | Cancel_timer tm :: acts -> Cancel_timer (L.key tm) :: drain_lower traced st acts k
    | Note s :: acts ->
        if traced then Note (lower_tag ^ s) :: drain_lower traced st acts k
        else drain_lower traced st acts k

  and[@tail_mod_cons] resume traced st = function
    | Done -> []
    | Upper_rest (acts, k) -> drain_upper traced st acts k
    | Lower_rest (acts, k) -> drain_lower traced st acts k

  let from_upper traced st (u, acts) =
    st.u <- u;
    drain_upper traced st acts Done

  let up_req ~traced st r = from_upper traced st (U.handle_up_req st.u r)
  let down_ind ~traced st i =
    drain_lower traced st (lower_step L.shape st (L.down_ind ~traced st.l i)) Done

  let fire ~traced st = function
    | Key tm -> from_upper traced st (U.handle_timer st.u tm)
    | tm -> drain_lower traced st (lower_step L.shape st (L.fire ~traced st.l tm)) Done
end

module Run (S : STACK) = struct
  include Runtime.Drive (struct
    include S

    let timer ~traced t tm = S.fire ~traced t (S.key tm)
  end)

  let create engine ~ins ~name ~transmit ~deliver parts =
    let cells, alloc =
      if not (Instrument.attributed ins) then ([||], None)
      else
        let cells = Array.map (Instrument.alloc_cell ins) S.scopes in
        ( cells,
          Some
            { Runtime.al_top = cells.(Array.length cells - 1); al_bottom = cells.(0);
              al_app = Instrument.alloc_cell ins "app"; al_wire = Instrument.alloc_cell ins "wire";
              al_timer = (fun tm -> cells.(S.owner (S.key tm))) } )
    in
    create engine ?tracer:ins.Instrument.tracer ?alloc ~name ~transmit ~deliver
      (S.build cells ins.Instrument.monitors ~conn:name parts)
end
