(* A registry is one shard's mutable state: sharded runs hold one per
   shard and merge their verdicts after the domains join (see
   {!merged_verdicts}). An endpoint with no registry attaches no
   instance, so an unmonitored crossing never reaches this module. *)

type instance = {
  spec : Spec.t;
  key : string;
  cfg : Spec.config;
  reg : registry;
  mutable i_dead : bool;
  (* per-direction event counts: Down events are the upper sublayer
     talking, Up events the lower *)
  mutable checked_down : int;
  mutable checked_up : int;
  mutable violated_down : bool;
  mutable violated_up : bool;
}

and registry = {
  rlabel : string;
  mutable instances : instance list;  (* newest first *)
  mutable viols : string list;        (* newest first *)
  mutable nviols : int;
  unreported : string Queue.t;        (* oldest first, drained by Soak *)
}

type t = registry

let create ?(label = "monitors") () =
  { rlabel = label; instances = []; viols = []; nviols = 0; unreported = Queue.create () }

let label t = t.rlabel

let attach t ~key spec =
  let inst =
    { spec; key; cfg = Spec.init spec; reg = t; i_dead = false;
      checked_down = 0; checked_up = 0; violated_down = false;
      violated_up = false }
  in
  t.instances <- inst :: t.instances;
  inst

let dead inst = inst.i_dead

(* Cold path: format the violation, blame the sender, silence the
   instance. The message embeds [key] (the connection/track name) so the
   soak flight recorder dumps the offending connection's spans. *)
let violate inst mid ~a ~b =
  inst.i_dead <- true;
  let is_down = Spec.msg_dir inst.spec mid = Spec.Down in
  let guilty =
    if is_down then Spec.upper inst.spec else Spec.lower inst.spec
  in
  if is_down then inst.violated_down <- true else inst.violated_up <- true;
  let msg =
    Printf.sprintf "monitor %s[%s]: %s violated: %s a=%d b=%d"
      (Spec.name inst.spec) inst.key guilty
      (Spec.explain inst.spec inst.cfg mid ~a ~b)
      a b
  in
  let r = inst.reg in
  r.viols <- msg :: r.viols;
  r.nviols <- r.nviols + 1;
  Queue.add msg r.unreported

let observe inst mid ~a ~b =
  if not inst.i_dead then begin
    (match Spec.msg_dir inst.spec mid with
    | Spec.Down -> inst.checked_down <- inst.checked_down + 1
    | Spec.Up -> inst.checked_up <- inst.checked_up + 1);
    if not (Spec.step inst.spec inst.cfg mid ~a ~b) then
      violate inst mid ~a ~b
  end

let violations t = List.rev t.viols
let violation_count t = t.nviols

let next_violation t = Queue.take_opt t.unreported

let invariant t () = next_violation t

let checked t =
  List.fold_left
    (fun acc i -> acc + i.checked_down + i.checked_up)
    0 t.instances

(* Each observed event is charged to the sublayer that sent it: [Down]
   to the spec's upper, [Up] to its lower. Sharded runs hold one
   registry per shard (monitors are single-domain mutable state); after
   the domains join, one tally over every registry's instances is the
   explicit merge, instead of sharing a registry across domains. *)
let merged_verdicts ts =
  let tbl = Hashtbl.create 16 in
  let bump name c v =
    let c0, v0 = Option.value ~default:(0, 0) (Hashtbl.find_opt tbl name) in
    Hashtbl.replace tbl name (c0 + c, v0 + v)
  in
  List.iter
    (fun t ->
      List.iter
        (fun i ->
          bump (Spec.upper i.spec) i.checked_down (Bool.to_int i.violated_down);
          bump (Spec.lower i.spec) i.checked_up (Bool.to_int i.violated_up))
        t.instances)
    ts;
  Hashtbl.fold (fun name (c, v) acc -> (name, c, v) :: acc) tbl []
  |> List.sort compare

let verdicts t = merged_verdicts [ t ]

let merged_invariant ts () =
  List.fold_left
    (fun acc t -> match acc with Some _ -> acc | None -> next_violation t)
    None ts
