(* Reference oracle for [Sublayer.Machine.Stack]'s one-pass drain: the
   list-rebuilding drain it replaced, kept as it was (a fresh state pair
   per routed action, each level's output consed in reverse and put right
   by [List.rev], each [Note] prefix concatenated per note) because its
   mutual recursion reads as the causal-order rule itself. Property tests
   hold the library's [Stack] to this one, state for state and action for
   action. *)

open Sublayer.Machine

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

  (* Route the two sublayers' action streams across the internal boundary.
     An upper [Down r] becomes a lower [handle_up_req]; a lower [Up i]
     becomes an upper [handle_down_ind]. Actions are emitted in causal
     order: effects triggered by an action fire before later sibling
     actions of the same batch. *)
  let rec drain_upper (u, l) acts out =
    match acts with
    | [] -> ((u, l), out)
    | act :: rest -> (
        match act with
        | Up i -> drain_upper (u, l) rest (Up i :: out)
        | Down r ->
            let l, lower_acts = Lower.handle_up_req l r in
            let (u, l), out = drain_lower (u, l) lower_acts out in
            drain_upper (u, l) rest out
        | Set_timer (tm, d) -> drain_upper (u, l) rest (Set_timer (Either.Left tm, d) :: out)
        | Cancel_timer tm -> drain_upper (u, l) rest (Cancel_timer (Either.Left tm) :: out)
        | Note s -> drain_upper (u, l) rest (Note (Upper.name ^ ": " ^ s) :: out))

  and drain_lower (u, l) acts out =
    match acts with
    | [] -> ((u, l), out)
    | act :: rest -> (
        match act with
        | Up i ->
            let u, upper_acts = Upper.handle_down_ind u i in
            let (u, l), out = drain_upper (u, l) upper_acts out in
            drain_lower (u, l) rest out
        | Down r -> drain_lower (u, l) rest (Down r :: out)
        | Set_timer (tm, d) -> drain_lower (u, l) rest (Set_timer (Either.Right tm, d) :: out)
        | Cancel_timer tm -> drain_lower (u, l) rest (Cancel_timer (Either.Right tm) :: out)
        | Note s -> drain_lower (u, l) rest (Note (Lower.name ^ ": " ^ s) :: out))

  let finish (st, out) = (st, List.rev out)

  let handle_up_req (u, l) req =
    let u, acts = Upper.handle_up_req u req in
    finish (drain_upper (u, l) acts [])

  let handle_down_ind (u, l) ind =
    let l, acts = Lower.handle_down_ind l ind in
    finish (drain_lower (u, l) acts [])

  let handle_timer (u, l) = function
    | Either.Left tm ->
        let u, acts = Upper.handle_timer u tm in
        finish (drain_upper (u, l) acts [])
    | Either.Right tm ->
        let l, acts = Lower.handle_timer l tm in
        finish (drain_lower (u, l) acts [])
end
