type t = {
  stats : Stats.registry option;
  tracer : Sim.Tracer.t option;
  monitors : Monitor.Runtime.t option;
  telemetry : Sim.Telemetry.t option;
  pool : Bitkit.Pool.t option;
  level : int;
}

let none =
  { stats = None; tracer = None; monitors = None; telemetry = None;
    pool = None; level = 0 }

let v ?stats ?tracer ?monitors ?telemetry ?pool ?(level = 0) () =
  if level < 0 then invalid_arg "Instrument.v: negative level";
  { stats; tracer; monitors; telemetry; pool; level }

let level_tag t = "l" ^ string_of_int t.level

(* Level 0 keeps the historical bare names so flat runs are report-
   identical to the pre-refactor tree; only nested stacks get tagged. *)
let scoped t name = if t.level = 0 then name else level_tag t ^ ":" ^ name
let tagged_name = scoped

(* Each helper matches instead of [Option.map]ping, so a factory asking
   for an instrument that is absent builds no closure. *)
let scope t sub =
  match t.stats with
  | None -> None
  | Some reg -> Some (Stats.scope reg (scoped t sub))

let span t ~now ~track sub =
  match t.tracer with
  | None -> None
  | Some tr -> Some (Span.make ~tracer:tr ?stats:(scope t sub) ~now ~track (scoped t sub))

let attributed t = t.telemetry <> None && t.stats <> None
let labelled t = t.monitors <> None || t.tracer <> None

let alloc_cell t sub =
  match (t.telemetry, t.stats) with
  | Some _, Some reg -> Some (Alloc.cell (Stats.scope reg (scoped t sub)))
  | _ -> None
