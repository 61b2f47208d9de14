(* Per-machine span context: the ergonomics layer over [Sim.Tracer].

   A [ctx] names the endpoint (track) and sublayer once, supplies virtual
   time, and keeps the machine's open spans under short string keys (an
   RD segment's flight span under ["f:<offset>"], say) so the pure
   transition functions never store span ids in their own state — the
   same benign-mutation idiom [Stats] established. Closing a span also
   feeds its sojourn into a per-name log₂ histogram in the machine's
   stats scope, so aggregate latency attribution needs no tracer at all.

   Every operation is a no-op (after one [None] match) when the ctx has
   no tracer, and tests that before it builds anything, so a disabled
   ctx allocates nothing. *)

type ctx = {
  tracer : Sim.Tracer.t option;
  track : string;
  sublayer : string;
  scope : Stats.scope option;
  now : unit -> float;
  opens : (string, int) Hashtbl.t; (* key -> live span id *)
}

(* A ctx without a tracer never writes its table (every writer first
   matches a live tracer), so all disabled ctxs share one empty table. *)
let no_opens : (string, int) Hashtbl.t = Hashtbl.create 1

let disabled sublayer =
  { tracer = None; track = ""; sublayer; scope = None; now = (fun () -> 0.);
    opens = no_opens }

let make ~tracer ?stats ~now ~track sublayer =
  { tracer = Some tracer; track; sublayer; scope = stats; now;
    opens = Hashtbl.create 16 }

let active ctx = Option.is_some ctx.tracer

let fresh_trace ctx =
  match ctx.tracer with
  | Some tr -> Sim.Tracer.fresh_trace tr
  | None -> 0

let open_ ctx ~key ?trace ?parent name =
  match ctx.tracer with
  | Some tr ->
      let id =
        Sim.Tracer.start tr ~at:(ctx.now ()) ~track:ctx.track
          ~sublayer:ctx.sublayer ?trace ?parent name
      in
      Hashtbl.replace ctx.opens key id
  | None -> ()

let id_of ctx ~key =
  match Hashtbl.find_opt ctx.opens key with Some id -> id | None -> 0

let trace_of ctx ~key =
  match ctx.tracer with
  | Some tr -> (
      match Hashtbl.find_opt ctx.opens key with
      | None -> 0
      | Some id -> Option.value ~default:0 (Sim.Tracer.trace_of tr id))
  | None -> 0

let observe ctx (sp : Sim.Tracer.span) =
  match ctx.scope with
  | None -> ()
  | Some sc ->
      let h = Stats.histogram sc (sp.Sim.Tracer.sp_name ^ "_us") in
      Stats.observe h (int_of_float ((Sim.Tracer.duration sp *. 1e6) +. 0.5))

(* Close the keyed span if it is still live; if the peer already closed
   it cross-host, just forget the key. *)
let close ctx ~key ?detail () =
  match ctx.tracer with
  | Some tr -> (
      match Hashtbl.find_opt ctx.opens key with
      | None -> ()
      | Some id -> (
          Hashtbl.remove ctx.opens key;
          match Sim.Tracer.finish tr ~at:(ctx.now ()) ?detail id with
          | Some sp -> observe ctx sp
          | None -> ()))
  | None -> ()

let close_all ctx ?detail () =
  if active ctx then begin
    let keys = Hashtbl.fold (fun k _ acc -> k :: acc) ctx.opens [] in
    List.iter (fun key -> close ctx ~key ?detail ()) keys
  end

let instant ctx ?trace ?parent ?detail name =
  match ctx.tracer with
  | Some tr ->
      Sim.Tracer.instant tr ~at:(ctx.now ()) ~track:ctx.track
        ~sublayer:ctx.sublayer ?trace ?parent ?detail name
  | None -> ()

(* An instant child of the keyed span, in its trace: the retransmission
   lineage primitive. *)
let child ctx ~key ?detail name =
  match ctx.tracer with
  | Some tr -> (
      match Hashtbl.find_opt ctx.opens key with
      | None -> instant ctx ?detail name
      | Some id ->
          let trace = Option.value ~default:0 (Sim.Tracer.trace_of tr id) in
          Sim.Tracer.instant tr ~at:(ctx.now ()) ~track:ctx.track
            ~sublayer:ctx.sublayer ~trace ~parent:id ?detail name)
  | None -> ()

(* Detached spans (not in [opens]): for intervals closed by another
   machine entirely, found again through the correlation table. *)
let start_free ctx ?trace ?parent name =
  match ctx.tracer with
  | Some tr ->
      Sim.Tracer.start tr ~at:(ctx.now ()) ~track:ctx.track
        ~sublayer:ctx.sublayer ?trace ?parent name
  | None -> 0

let close_id ctx ~id ?detail () =
  match ctx.tracer with
  | Some tr when id <> 0 -> (
      match Sim.Tracer.finish tr ~at:(ctx.now ()) ?detail id with
      | Some sp ->
          observe ctx sp;
          sp.Sim.Tracer.sp_trace
      | None -> 0)
  | _ -> 0

let trace_of_id ctx ~id =
  match ctx.tracer with
  | Some tr -> Option.value ~default:0 (Sim.Tracer.trace_of tr id)
  | None -> 0

(* --- Correlation keys --- *)

let bind ctx key v =
  match ctx.tracer with
  | Some tr -> Sim.Tracer.bind tr key v
  | None -> ()

let lookup ctx key =
  match ctx.tracer with
  | Some tr -> Option.value ~default:0 (Sim.Tracer.lookup tr key)
  | None -> 0

let unbind ctx key =
  match ctx.tracer with
  | Some tr -> Sim.Tracer.unbind tr key
  | None -> ()

let take ctx key =
  let v = lookup ctx key in
  if v <> 0 then unbind ctx key;
  v

(* Track-qualified keys: shared by the sublayers of one endpoint (OSR
   hands RD the trace of a stream offset this way) without colliding
   across endpoints that share the tracer. The key is built only for a
   live tracer. *)
let local ctx key = ctx.track ^ "|" ^ key
let bind_local ctx key v = if active ctx then bind ctx (local ctx key) v
let lookup_local ctx key = if active ctx then lookup ctx (local ctx key) else 0
let take_local ctx key = if active ctx then take ctx (local ctx key) else 0
