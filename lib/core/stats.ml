type counter = { c_name : string; mutable c : int }
type gauge = { g_name : string; mutable g : int }

(* 63 buckets cover every non-negative OCaml int: bucket [b] holds values
   [v] with [2^b <= v < 2^(b+1)] (bucket 0 also takes 0). *)
let n_buckets = 63

type histogram = {
  h_name : string;
  mutable h_count : int;
  mutable h_sum : int;
  buckets : int array;
}

type scope = {
  s_name : string;
  mutable counters : counter list; (* newest first *)
  mutable gauges : gauge list;
  mutable hists : histogram list;
  (* What each memo built on this scope. The list only grows, by a
     compare-and-set, so a memo resolves safely from any domain. *)
  memos : binding list Atomic.t;
}

and binding = Binding : 'a Type.Id.t * 'a -> binding

type registry = {
  r_label : string;
  mutable r_scopes : scope list;
  (* Telemetry instances this registry already feeds (physical identity):
     the "once per registry" rule of [telemetry_source], enforced. *)
  mutable r_sources : Sim.Telemetry.t list;
}

let create ?(label = "stats") () =
  { r_label = label; r_scopes = []; r_sources = [] }
let label r = r.r_label

(* Find-or-create lookups walk the list directly; the name getters are
   closed functions, so a lookup that finds its entry allocates nothing. *)
let rec named get name = function
  | [] -> raise_notrace Not_found
  | x :: rest -> if String.equal (get x) name then x else named get name rest

let fresh_scope name =
  { s_name = name; counters = []; gauges = []; hists = []; memos = Atomic.make [] }

let scope r name =
  match named (fun s -> s.s_name) name r.r_scopes with
  | s -> s
  | exception Not_found ->
      let s = fresh_scope name in
      r.r_scopes <- s :: r.r_scopes;
      s

let unregistered = fresh_scope

let scope_name s = s.s_name

let scopes r =
  List.sort (fun a b -> compare a.s_name b.s_name) r.r_scopes

let counter s name =
  match named (fun c -> c.c_name) name s.counters with
  | c -> c
  | exception Not_found ->
      let c = { c_name = name; c = 0 } in
      s.counters <- c :: s.counters;
      c

let incr c = c.c <- c.c + 1
let add c n = c.c <- c.c + n
let value c = c.c

let gauge s name =
  match named (fun g -> g.g_name) name s.gauges with
  | g -> g
  | exception Not_found ->
      let g = { g_name = name; g = 0 } in
      s.gauges <- g :: s.gauges;
      g

let set g v = g.g <- v
let gauge_value g = g.g

let histogram s name =
  match named (fun h -> h.h_name) name s.hists with
  | h -> h
  | exception Not_found ->
      let h =
        { h_name = name; h_count = 0; h_sum = 0; buckets = Array.make n_buckets 0 }
      in
      s.hists <- h :: s.hists;
      h

let bucket_of v =
  if v <= 1 then 0
  else begin
    (* floor log2, by shifting: allocation-free. *)
    let b = ref 0 and v = ref v in
    while !v > 1 do
      v := !v lsr 1;
      b := !b + 1
    done;
    if !b >= n_buckets then n_buckets - 1 else !b
  end

let observe h v =
  let v = if v < 0 then 0 else v in
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v;
  let b = bucket_of v in
  h.buckets.(b) <- h.buckets.(b) + 1

let hist_count h = h.h_count
let hist_sum h = h.h_sum

let hist_buckets h =
  let out = ref [] in
  for b = n_buckets - 1 downto 0 do
    if h.buckets.(b) > 0 then out := (1 lsl b, h.buckets.(b)) :: !out
  done;
  !out

type 'a memo = { id : 'a Type.Id.t; build : scope -> 'a }

let memo build = { id = Type.Id.make (); build }

let rec recall : type a. a Type.Id.t -> binding list -> a =
 fun id -> function
  | [] -> raise_notrace Not_found
  | Binding (id', v) :: rest -> (
      match Type.Id.provably_equal id id' with
      | Some Type.Equal -> v
      | None -> recall id rest)

(* A domain that loses the race to publish re-reads the list, so every
   caller gets the value that was published first. *)
let rec memoised m s =
  let seen = Atomic.get s.memos in
  match recall m.id seen with
  | v -> v
  | exception Not_found ->
      let v = m.build s in
      if Atomic.compare_and_set s.memos seen (Binding (m.id, v) :: seen) then v
      else memoised m s

type snapshot = (string * int) list

let snapshot r =
  let entries = ref [] in
  List.iter
    (fun s ->
      let pre = s.s_name ^ "." in
      List.iter (fun c -> entries := (pre ^ c.c_name, c.c) :: !entries) s.counters;
      List.iter (fun g -> entries := (pre ^ g.g_name, g.g) :: !entries) s.gauges;
      List.iter
        (fun h ->
          entries :=
            (pre ^ h.h_name ^ ".sum", h.h_sum)
            :: (pre ^ h.h_name ^ ".count", h.h_count)
            :: !entries)
        s.hists)
    r.r_scopes;
  List.sort (fun (a, _) (b, _) -> compare a b) !entries

(* Split views for time-series sampling: counters (and histogram
   count/sum, which only grow) are delta'd per tick, gauges are sampled
   raw. *)
let snapshot_counters r =
  let entries = ref [] in
  List.iter
    (fun s ->
      let pre = s.s_name ^ "." in
      List.iter (fun c -> entries := (pre ^ c.c_name, c.c) :: !entries) s.counters;
      List.iter
        (fun h ->
          entries :=
            (pre ^ h.h_name ^ ".sum", h.h_sum)
            :: (pre ^ h.h_name ^ ".count", h.h_count)
            :: !entries)
        s.hists)
    r.r_scopes;
  List.sort (fun (a, _) (b, _) -> compare a b) !entries

let snapshot_gauges r =
  let entries = ref [] in
  List.iter
    (fun s ->
      let pre = s.s_name ^ "." in
      List.iter (fun g -> entries := (pre ^ g.g_name, g.g) :: !entries) s.gauges)
    r.r_scopes;
  List.sort (fun (a, _) (b, _) -> compare a b) !entries

(* One registry = one telemetry source pair per telemetry instance.
   Several hosts sharing one registry (a fabric, the two ends of a
   tunnel) may each call this; only the first call per (registry,
   telemetry) pair registers — later ones are no-ops, so shared
   registries never double-count their deltas. *)
let telemetry_source tele ~name r =
  if not (List.memq tele r.r_sources) then begin
    r.r_sources <- tele :: r.r_sources;
    Sim.Telemetry.add_counters tele ~name (fun () -> snapshot_counters r);
    (* Registry gauges are last-write-wins scalars (e.g. cwnd of
       whichever connection set it last), so per-shard readings don't sum
       to the shared-registry reading — nondeterministic half. *)
    Sim.Telemetry.add_gauges tele ~det:false ~name (fun () -> snapshot_gauges r)
  end

let delta ~before ~after =
  let base = Hashtbl.create 16 in
  List.iter (fun (k, v) -> Hashtbl.replace base k v) before;
  List.filter_map
    (fun (k, v) ->
      let d = v - (try Hashtbl.find base k with Not_found -> 0) in
      if d = 0 then None else Some (k, d))
    after

let pp_snapshot fmt snap =
  let width =
    List.fold_left (fun w (k, _) -> max w (String.length k)) 0 snap
  in
  List.iter (fun (k, v) -> Format.fprintf fmt "  %-*s %10d@\n" width k v) snap

let pp fmt r =
  Format.fprintf fmt "%s:@\n" r.r_label;
  pp_snapshot fmt (snapshot r)

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let snapshot_to_json snap =
  let buf = Buffer.create 256 in
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "\"%s\":%d" (json_escape k) v))
    snap;
  Buffer.add_char buf '}';
  Buffer.contents buf

let to_json r =
  Printf.sprintf "{\"label\":\"%s\",\"stats\":%s}" (json_escape r.r_label)
    (snapshot_to_json (snapshot r))
