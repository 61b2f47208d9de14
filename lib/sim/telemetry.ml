(* Bounded-ring time series. Sampling is read-only: sources must not
   schedule events or draw from RNGs, so enabling telemetry cannot
   perturb the event schedule. *)

type sample = {
  ts : float;
  det : (string * int) list;
  nondet : (string * int) list;
}

type source = {
  s_name : string;
  s_read : unit -> (string * int) list;
  s_kind : [ `Counter | `Gauge ];
  s_det : bool;
  (* false routes the whole source to the nondeterministic half *)
  mutable s_prev : (string * int) list;
  (* last absolute reading, counter sources only *)
  mutable s_fresh : bool;
  (* baseline not yet taken (set again by [clear]) *)
}

type t = {
  t_label : string;
  t_interval : float;
  t_ring : sample Ring.t;
  mutable t_last_ts : float;
  mutable t_sources : source list; (* reverse registration order *)
}

let create ?(label = "telemetry") ?(capacity = 4096) ?(interval = 0.) () =
  {
    t_label = label;
    t_interval = interval;
    t_ring = Ring.create ~capacity { ts = 0.; det = []; nondet = [] };
    t_last_ts = neg_infinity;
    t_sources = [];
  }

let label t = t.t_label
let interval t = t.t_interval

let add_source t ~name ~det kind read =
  t.t_sources <-
    { s_name = name; s_read = read; s_kind = kind; s_det = det; s_prev = [];
      s_fresh = true }
    :: t.t_sources

let add_counters t ?(det = true) ~name read = add_source t ~name ~det `Counter read
let add_gauges t ?(det = true) ~name read = add_source t ~name ~det `Gauge read

let add_gc t =
  add_source t ~name:"gc" ~det:false `Counter (fun () ->
      let s = Gc.quick_stat () in
      [
        ("minor_words", int_of_float s.Gc.minor_words);
        ("promoted_words", int_of_float s.Gc.promoted_words);
        ("major_words", int_of_float s.Gc.major_words);
        ("minor_collections", s.Gc.minor_collections);
        ("major_collections", s.Gc.major_collections);
      ]);
  add_source t ~name:"gc" ~det:false `Gauge (fun () ->
      [ ("heap_words", (Gc.quick_stat ()).Gc.heap_words) ])

(* Keys carrying real-allocation readings are never bit-identical across
   shard counts; route them to the nondeterministic half. *)
let nondet_key key =
  let n = String.length key in
  (n >= 3 && String.sub key 0 3 = "gc.")
  ||
  let rec scan i =
    i + 4 <= n && (String.sub key i 4 = ".gc." || scan (i + 1))
  in
  scan 0

let read_source s =
  let abs = s.s_read () in
  let readings =
    match s.s_kind with
    | `Gauge -> abs
    | `Counter ->
        if s.s_fresh then begin
          s.s_fresh <- false;
          s.s_prev <- abs;
          []
        end
        else
          let prev = s.s_prev in
          s.s_prev <- abs;
          List.filter_map
            (fun (k, v) ->
              let before =
                match List.assoc_opt k prev with Some p -> p | None -> 0
              in
              if v <> before then Some (k, v - before) else None)
            abs
  in
  List.map (fun (k, v) -> (s.s_name ^ "." ^ k, v)) readings

let by_key (a, _) (b, _) = String.compare a b

let record t ~now =
  let det = ref [] and nondet = ref [] in
  List.iter
    (fun s ->
      List.iter
        (fun ((k, _) as kv) ->
          if (not s.s_det) || nondet_key k then nondet := kv :: !nondet
          else det := kv :: !det)
        (read_source s))
    (List.rev t.t_sources);
  Ring.push t.t_ring
    { ts = now; det = List.sort by_key !det; nondet = List.sort by_key !nondet };
  t.t_last_ts <- now

let tick t ~now =
  if t.t_last_ts = neg_infinity || now -. t.t_last_ts >= t.t_interval then
    record t ~now

let sample_now t ~now = record t ~now

let samples t = Ring.to_list t.t_ring
let last_sample t = Ring.newest t.t_ring
let length t = Ring.length t.t_ring
let recorded t = Ring.recorded t.t_ring
let dropped t = Ring.dropped t.t_ring

let clear t =
  Ring.clear t.t_ring;
  t.t_last_ts <- neg_infinity;
  List.iter
    (fun s ->
      s.s_prev <- [];
      s.s_fresh <- true)
    t.t_sources

let deterministic_series t = List.map (fun s -> (s.ts, s.det)) (samples t)

let merge_values a b =
  (* both name-sorted; union keys, sum values *)
  let rec go a b acc =
    match (a, b) with
    | [], rest | rest, [] -> List.rev_append acc rest
    | (ka, va) :: ta, (kb, vb) :: tb ->
        let c = String.compare ka kb in
        if c = 0 then go ta tb ((ka, va + vb) :: acc)
        else if c < 0 then go ta b ((ka, va) :: acc)
        else go a tb ((kb, vb) :: acc)
  in
  go a b []

let merged_deterministic ts =
  match List.map deterministic_series ts with
  | [] -> []
  | first :: rest ->
      List.fold_left
        (fun acc series ->
          if List.length acc <> List.length series then
            invalid_arg "Telemetry.merged_deterministic: sample count mismatch";
          List.map2
            (fun (ta, va) (tb, vb) ->
              if ta <> tb then
                invalid_arg "Telemetry.merged_deterministic: timestamp mismatch";
              (ta, merge_values va vb))
            acc series)
        first rest

(* --- export --- *)

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_obj kvs =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%d" (json_escape k) v) kvs)
  ^ "}"

let to_json t =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "{\"label\":\"%s\",\"interval\":%g,\"dropped\":%d,\"samples\":["
       (json_escape t.t_label) t.t_interval (dropped t));
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"ts\":%g,\"values\":%s,\"gc\":%s}" s.ts
           (json_obj s.det) (json_obj s.nondet)))
    (samples t);
  Buffer.add_string b "]}";
  Buffer.contents b

let to_csv t =
  let b = Buffer.create 1024 in
  Buffer.add_string b "ts,key,value\n";
  List.iter
    (fun s ->
      List.iter
        (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%g,%s,%d\n" s.ts k v))
        (s.det @ s.nondet))
    (samples t);
  Buffer.contents b

(* The trace_event format specifies integer pids; the default sits well
   past the tracer exporter's track pids (numbered 1..#tracks), so
   spliced counter tracks group under their own process row. The label
   rides in a [process_name] metadata record, as in [chrome_json_of]. *)
let chrome_counter_events ?(pid = 1000) t =
  let meta =
    Printf.sprintf
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"%s\"}}"
      pid (json_escape t.t_label)
  in
  let events =
    List.concat_map
      (fun s ->
        let us = int_of_float (s.ts *. 1e6) in
        List.map
          (fun (k, v) ->
            Printf.sprintf
              "{\"name\":\"%s\",\"ph\":\"C\",\"ts\":%d,\"pid\":%d,\"args\":{\"value\":%d}}"
              (json_escape k) us pid v)
          (s.det @ s.nondet))
      (samples t)
  in
  meta :: events
