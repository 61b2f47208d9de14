(* Reference oracle for [Sublayer.Runtime.Make]: the list-applying
   runtime it replaced, kept as it was but for allocation attribution: a
   step's list applied in order right after the step, a halt dropping
   the rest of it, one entry per armed timer value, a re-arm cancelling
   the timer's event and scheduling a new one. [Runtime.Make] now feeds
   the one segment applier [Compose.Run] uses, so property tests hold
   both to this one, which shares no code with them, under re-entry,
   halts and raises. *)

open Sublayer.Machine

module Make (S : S) = struct
  type entry = { tm : S.timer; mutable handle : Sim.Engine.handle }

  type t = {
    engine : Sim.Engine.t;
    tracer : Sim.Tracer.t option;
    name : string;
    transmit : S.down_req -> unit;
    deliver : S.up_ind -> unit;
    mutable st : S.t;
    mutable timers : entry list;
    mutable halted : bool;
  }

  let create engine ?tracer ~name ~transmit ~deliver st =
    { engine; tracer; name; transmit; deliver; st; timers = []; halted = false }

  let note t msg =
    match t.tracer with
    | None -> ()
    | Some tr ->
        Sim.Tracer.instant tr ~at:(Sim.Engine.now t.engine) ~track:t.name ~sublayer:"note" msg

  let rec apply t = function
    | [] -> ()
    | act :: acts ->
        apply_one t act;
        if not t.halted then apply t acts

  and apply_one t = function
    | Up i -> t.deliver i
    | Down r -> t.transmit r
    | Note s -> note t s
    | Cancel_timer tm -> (
        match List.find_opt (fun e -> e.tm = tm) t.timers with
        | Some e ->
            Sim.Engine.cancel e.handle;
            t.timers <- List.filter (fun e' -> e' != e) t.timers
        | None -> ())
    | Set_timer (tm, delay) -> (
        let fire () = fire t tm in
        match List.find_opt (fun e -> e.tm = tm) t.timers with
        | Some e ->
            Sim.Engine.cancel e.handle;
            e.handle <- Sim.Engine.schedule t.engine ~after:delay fire
        | None ->
            t.timers <- { tm; handle = Sim.Engine.schedule t.engine ~after:delay fire } :: t.timers)

  and fire t tm =
    t.timers <- List.filter (fun e -> e.tm <> tm) t.timers;
    if not t.halted then step t (S.handle_timer t.st tm)

  and step t (st, acts) =
    t.st <- st;
    apply t acts

  let from_above t req = if not t.halted then step t (S.handle_up_req t.st req)
  let from_below t ind = if not t.halted then step t (S.handle_down_ind t.st ind)

  let halt t =
    if not t.halted then begin
      t.halted <- true;
      List.iter (fun e -> Sim.Engine.cancel e.handle) t.timers;
      t.timers <- [];
      note t "halted"
    end
end
