(* Self-time accounting for the traced rep, measured from outside the
   library. Every sublayer is a pure machine reached only through its
   [handle_*] functions (and every datalink mechanism only through its
   record of closures), so wrapping those calls brackets exactly the
   sublayer's own work. A stack of open frames subtracts nested timed
   calls (CC inside OSR, every sublayer inside the composed stack) from
   their parent, so each layer is charged its self time only.

   The hot path allocates nothing: the clock is bechamel's unboxed
   monotonic nanosecond counter, minor words come from the unboxed
   [Gc.minor_words], and frames and spans live in preallocated int
   arrays. A GC pause is charged to whichever frame was open when the
   allocation that triggered it happened. *)

let layers =
  [| "osr"; "rd"; "cm"; "dm"; "cc"; "rec";
     "l1_osr"; "l1_rd"; "l1_cm"; "l1_dm"; "l1_cc";
     "arq"; "detector"; "framer"; "linecode" |]

(* The composed [Machine.Stack]: its self time is the routing between
   sublayers and the [Conform] probe taps. *)
let stack = Array.length layers

let n_ids = stack + 1

let id name =
  let rec find i =
    if i = Array.length layers then invalid_arg ("Timing.id: unknown layer " ^ name)
    else if layers.(i) = name then i
    else find (i + 1)
  in
  find 0

let name_of i = if i = stack then "stack" else layers.(i)

let[@inline] now_ns () = Int64.to_int (Monotonic_clock.now ())
let[@inline] words () = Float.to_int (Gc.minor_words ())

let calls = Array.make n_ids 0
let self_ns = Array.make n_ids 0
let self_words = Array.make n_ids 0

(* Inclusive time of the outermost frames: wall minus this is the time
   spent outside every stack and sublayer. *)
let top_ns = ref 0

let max_depth = 64
let f_id = Array.make max_depth 0
let f_t0 = Array.make max_depth 0
let f_w0 = Array.make max_depth 0
let f_child_ns = Array.make max_depth 0
let f_child_w = Array.make max_depth 0
let f_span = Array.make max_depth (-1)
let depth = ref 0

let span_cap = 65_536
let sp_id = Array.make span_cap 0
let sp_start = Array.make span_cap 0
let sp_end = Array.make span_cap 0
let sp_parent = Array.make span_cap (-1)
let n_spans = ref 0

let reset () =
  Array.fill calls 0 n_ids 0;
  Array.fill self_ns 0 n_ids 0;
  Array.fill self_words 0 n_ids 0;
  top_ns := 0;
  depth := 0;
  n_spans := 0

let enter id =
  let d = !depth in
  if d = max_depth then failwith "Timing.enter: frames nested too deep";
  f_id.(d) <- id;
  f_child_ns.(d) <- 0;
  f_child_w.(d) <- 0;
  let s = !n_spans in
  if s < span_cap then begin
    sp_id.(s) <- id;
    sp_parent.(s) <- (if d = 0 then -1 else f_span.(d - 1));
    n_spans := s + 1;
    f_span.(d) <- s
  end
  else f_span.(d) <- -1;
  depth := d + 1;
  f_w0.(d) <- words ();
  f_t0.(d) <- now_ns ()

let leave () =
  let t1 = now_ns () in
  let w1 = words () in
  let d = !depth - 1 in
  depth := d;
  let id = f_id.(d) in
  let el = t1 - f_t0.(d) and ew = w1 - f_w0.(d) in
  calls.(id) <- calls.(id) + 1;
  self_ns.(id) <- self_ns.(id) + el - f_child_ns.(d);
  self_words.(id) <- self_words.(id) + ew - f_child_w.(d);
  let s = f_span.(d) in
  if s >= 0 then begin
    sp_start.(s) <- f_t0.(d);
    sp_end.(s) <- t1
  end;
  if d > 0 then begin
    f_child_ns.(d - 1) <- f_child_ns.(d - 1) + el;
    f_child_w.(d - 1) <- f_child_w.(d - 1) + ew
  end
  else top_ns := !top_ns + el

let call1 id f a =
  enter id;
  match f a with
  | r -> leave (); r
  | exception e -> leave (); raise e

let call2 id f a b =
  enter id;
  match f a b with
  | r -> leave (); r
  | exception e -> leave (); raise e

let call3 id f a b c =
  enter id;
  match f a b c with
  | r -> leave (); r
  | exception e -> leave (); raise e

(* [S] with its three transitions timed as layer [N.layer]. *)
module Timed
    (N : sig
      val layer : string
    end)
    (S : Sublayer.Machine.S) :
  Sublayer.Machine.S
    with type t = S.t
     and type up_req = S.up_req
     and type up_ind = S.up_ind
     and type down_req = S.down_req
     and type down_ind = S.down_ind
     and type timer = S.timer = struct
  include S

  let id = if N.layer = "stack" then stack else id N.layer
  let handle_up_req t x = call2 id S.handle_up_req t x
  let handle_down_ind t x = call2 id S.handle_down_ind t x
  let handle_timer t x = call2 id S.handle_timer t x
end

(* The kept spans as a Chrome trace (ui.perfetto.dev, chrome://tracing):
   one complete event per span, microseconds from the first span, with
   the enclosing span's index in [args.parent]. *)
let write_chrome path =
  let n = !n_spans in
  let base = if n = 0 then 0 else sp_start.(0) in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  for s = 0 to n - 1 do
    if s > 0 then output_char oc ',';
    Printf.fprintf oc
      "\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%d,\"parent\":%d}}"
      (name_of sp_id.(s))
      (float_of_int (sp_start.(s) - base) /. 1e3)
      (float_of_int (sp_end.(s) - sp_start.(s)) /. 1e3)
      s sp_parent.(s)
  done;
  output_string oc "\n]}\n";
  close_out oc
