module type SUBLAYER = sig
  include Machine.S

  val scope : string
end

type 'p probe = ?alloc:Alloc.pair -> Monitor.Runtime.t option -> conn:string -> 'p

module type STACK = sig
  include Machine.S

  type parts

  val scopes : string array
  val owner : timer -> int
  val build : Alloc.cell option array -> Monitor.Runtime.t option -> conn:string -> parts -> t
end

module Last (M : SUBLAYER) = struct
  include M

  type parts = M.t

  let scopes = [| M.scope |]
  let owner _ = 0
  let build _ _ ~conn:_ m = m
end

module Seam
    (U : SUBLAYER)
    (P : Machine.TAP with type up_req = U.down_req and type up_ind = U.down_ind)
    (L : STACK with type up_req = U.down_req and type up_ind = U.down_ind) =
struct
  include Machine.Seam (U) (P) (L)

  type parts = U.t * P.t probe * L.parts

  (* [U]'s index in [scopes]; [L]'s top sublayer is just below it. *)
  let at = Array.length L.scopes
  let scopes = Array.append L.scopes [| U.scope |]
  let owner = function Either.Left _ -> at | Either.Right tm -> L.owner tm

  let build cells mon ~conn (u, probe, l) =
    let l = L.build cells mon ~conn l in
    let alloc = if Array.length cells = 0 then None else Some (cells.(at), cells.(at - 1)) in
    make u (probe ?alloc mon ~conn) l
end

module Run (S : STACK) = struct
  include Runtime.Make (S)

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
