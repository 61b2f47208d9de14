(* A registry is one shard's mutable state: sharded runs hold one per
   shard and merge their verdicts after the domains join (see
   {!merged_verdicts}). An endpoint with no registry attaches no
   instance, so an unmonitored crossing never reaches this module.

   The registry keeps one tally per sublayer name, not its instances: an
   instance resolves the two tallies it charges when it is attached, and
   becomes garbage with the stack that holds it. *)

type tally = { mutable checked : int; mutable violated : int }

type instance = {
  spec : Spec.t;
  key : string;
  cfg : Spec.config;
  reg : registry;
  mutable i_dead : bool;
  (* Down events are the upper sublayer talking, Up events the lower *)
  down : tally;
  up : tally;
}

and registry = {
  rlabel : string;
  tallies : (string, tally) Hashtbl.t;  (* by sublayer name *)
  mutable viols : string list;        (* newest first *)
  mutable nviols : int;
  unreported : string Queue.t;        (* oldest first, drained by Soak *)
}

type t = registry

let create ?(label = "monitors") () =
  { rlabel = label; tallies = Hashtbl.create 8; viols = []; nviols = 0;
    unreported = Queue.create () }

let label t = t.rlabel

let tally t name =
  match Hashtbl.find_opt t.tallies name with
  | Some c -> c
  | None ->
      let c = { checked = 0; violated = 0 } in
      Hashtbl.add t.tallies name c;
      c

let attach t ~key spec =
  { spec; key; cfg = Spec.init spec; reg = t; i_dead = false;
    down = tally t (Spec.upper spec); up = tally t (Spec.lower spec) }

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
  let c = if is_down then inst.down else inst.up in
  c.violated <- c.violated + 1;
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
    let c = match Spec.msg_dir inst.spec mid with Spec.Down -> inst.down | Spec.Up -> inst.up in
    c.checked <- c.checked + 1;
    if not (Spec.step inst.spec inst.cfg mid ~a ~b) then
      violate inst mid ~a ~b
  end

let violations t = List.rev t.viols
let violation_count t = t.nviols

let next_violation t = Queue.take_opt t.unreported

let invariant t () = next_violation t

let checked t = Hashtbl.fold (fun _ c acc -> acc + c.checked) t.tallies 0

(* Each observed event is charged to the sublayer that sent it: [Down]
   to the spec's upper, [Up] to its lower. Sharded runs hold one
   registry per shard (monitors are single-domain mutable state); after
   the domains join, one sum over every registry's tallies is the
   explicit merge, instead of sharing a registry across domains. *)
let merged_verdicts ts =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun t ->
      Hashtbl.iter
        (fun name c ->
          let c0, v0 = Option.value ~default:(0, 0) (Hashtbl.find_opt tbl name) in
          Hashtbl.replace tbl name (c0 + c.checked, v0 + c.violated))
        t.tallies)
    ts;
  Hashtbl.fold (fun name (c, v) acc -> (name, c, v) :: acc) tbl []
  |> List.sort compare

let verdicts t = merged_verdicts [ t ]

let merged_invariant ts () =
  List.fold_left
    (fun acc t -> match acc with Some _ -> acc | None -> next_violation t)
    None ts
