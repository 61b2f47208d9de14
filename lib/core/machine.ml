type ('up_ind, 'down_req, 'timer) action =
  | Up of 'up_ind
  | Down of 'down_req
  | Set_timer of 'timer * float
  | Cancel_timer of 'timer
  | Note of string

module type S = sig
  val name : string

  type t
  type up_req
  type up_ind
  type down_req
  type down_ind
  type timer

  val handle_up_req : t -> up_req -> t * (up_ind, down_req, timer) action list
  val handle_down_ind : t -> down_ind -> t * (up_ind, down_req, timer) action list
  val handle_timer : t -> timer -> t * (up_ind, down_req, timer) action list
end

module Nothing = struct
  type t = |

  let absurd (x : t) = match x with _ -> .
end

module Stack
    (Upper : S)
    (Lower : S with type up_req = Upper.down_req and type up_ind = Upper.down_ind) =
struct
  let name = Upper.name ^ "/" ^ Lower.name

  type t = Upper.t * Lower.t
  type up_req = Upper.up_req
  type up_ind = Upper.up_ind
  type down_req = Lower.down_req
  type down_ind = Lower.down_ind
  type timer = (Upper.timer, Lower.timer) Either.t

  (* Built once per functor application. *)
  let upper_tag = Upper.name ^ ": "
  let lower_tag = Lower.name ^ ": "

  (* The states of one step. The drain updates them in place, so a
     crossing costs no tuple. *)
  type step = { mutable u : Upper.t; mutable l : Lower.t }

  (* What is left once the list being drained runs out: the rest of the
     other side's list, saved at the crossing that interrupted it. A
     crossing that ends its list saves nothing. *)
  type rest =
    | Done
    | Upper_rest of (Upper.up_ind, Upper.down_req, Upper.timer) action list * rest
    | Lower_rest of (Lower.up_ind, Lower.down_req, Lower.timer) action list * rest

  (* Route the two sublayers' action streams across the internal boundary.
     An upper [Down r] becomes a lower [handle_up_req]; a lower [Up i]
     becomes an upper [handle_down_ind]. Actions are emitted in causal
     order: effects triggered by an action fire before later sibling
     actions of the same batch. The output list is built front to back
     ([tail_mod_cons]), so nothing is reversed. *)
  let[@tail_mod_cons] rec drain_upper st acts k =
    match acts with
    | [] -> resume st k
    | Up i :: acts -> Up i :: drain_upper st acts k
    | Down r :: acts ->
        let l, lower = Lower.handle_up_req st.l r in
        st.l <- l;
        drain_lower st lower (match acts with [] -> k | _ -> Upper_rest (acts, k))
    | Set_timer (tm, d) :: acts -> Set_timer (Either.Left tm, d) :: drain_upper st acts k
    | Cancel_timer tm :: acts -> Cancel_timer (Either.Left tm) :: drain_upper st acts k
    | Note s :: acts -> Note (upper_tag ^ s) :: drain_upper st acts k

  and[@tail_mod_cons] drain_lower st acts k =
    match acts with
    | [] -> resume st k
    | Up i :: acts ->
        let u, upper = Upper.handle_down_ind st.u i in
        st.u <- u;
        drain_upper st upper (match acts with [] -> k | _ -> Lower_rest (acts, k))
    | Down r :: acts -> Down r :: drain_lower st acts k
    | Set_timer (tm, d) :: acts -> Set_timer (Either.Right tm, d) :: drain_lower st acts k
    | Cancel_timer tm :: acts -> Cancel_timer (Either.Right tm) :: drain_lower st acts k
    | Note s :: acts -> Note (lower_tag ^ s) :: drain_lower st acts k

  and[@tail_mod_cons] resume st = function
    | Done -> []
    | Upper_rest (acts, k) -> drain_upper st acts k
    | Lower_rest (acts, k) -> drain_lower st acts k

  (* Finish a step that began in the upper (lower) sublayer. The pair
     going in is handed back when neither state moved. *)
  let from_upper ((u0, l0) as t) (u, acts) =
    let st = { u; l = l0 } in
    let out = drain_upper st acts Done in
    ((if st.u == u0 && st.l == l0 then t else (st.u, st.l)), out)

  let from_lower ((u0, l0) as t) (l, acts) =
    let st = { u = u0; l } in
    let out = drain_lower st acts Done in
    ((if st.u == u0 && st.l == l0 then t else (st.u, st.l)), out)

  let handle_up_req ((u, _) as t) req = from_upper t (Upper.handle_up_req u req)
  let handle_down_ind ((_, l) as t) ind = from_lower t (Lower.handle_down_ind l ind)

  let handle_timer ((u, l) as t) = function
    | Either.Left tm -> from_upper t (Upper.handle_timer u tm)
    | Either.Right tm -> from_lower t (Lower.handle_timer l tm)
end

module Probe (M : sig
  type req
  type ind

  val name : string
end) =
struct
  let name = M.name

  type t = { obs_req : M.req -> unit; obs_ind : M.ind -> unit }

  let nop _ = ()
  let inert = { obs_req = nop; obs_ind = nop }

  type up_req = M.req
  type up_ind = M.ind
  type down_req = M.req
  type down_ind = M.ind
  type timer = Nothing.t

  let handle_up_req t msg =
    t.obs_req msg;
    (t, [ Down msg ])

  let handle_down_ind t msg =
    t.obs_ind msg;
    (t, [ Up msg ])

  let handle_timer _ t = Nothing.absurd t
end
