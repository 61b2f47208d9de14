(* Attribution context: one per domain (shards run one domain each, and a
   shared checkpoint would interleave their charge intervals). The cell
   stack handles reentrancy — app delivery can call back into the stack
   (auto-read credit) while an [enter] is open. *)

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag

type cell = { a_counter : Stats.counter }

let cell scope = { a_counter = Stats.counter scope "gc.minor_words" }
let cell_value c = Stats.value c.a_counter

type ctx = {
  mutable cur : cell option;
  mutable checkpoint : float;   (* Gc.minor_words at the last hook *)
  mutable stack : cell option array;
  mutable depth : int;
  mutable overhead : float;     (* words one Gc.minor_words read costs *)
}

(* One [Gc.minor_words] call returns a boxed float allocated *after* the
   counter is read, so its words land in the following interval. Two
   back-to-back reads measure exactly that self-cost. *)
let calibrate () =
  let a = Gc.minor_words () in
  let b = Gc.minor_words () in
  let c = Gc.minor_words () in
  Float.max (b -. a) (c -. b)

let key =
  Domain.DLS.new_key (fun () ->
      { cur = None;
        checkpoint = 0.0;
        stack = Array.make 64 None;
        depth = 0;
        overhead = calibrate () })

let overhead_words () =
  int_of_float (Domain.DLS.get key).overhead

let set_enabled b =
  (* Re-anchor the checkpoint on enable so the first charged interval
     starts now, not at domain birth. *)
  if b then begin
    let ctx = Domain.DLS.get key in
    ctx.cur <- None;
    ctx.depth <- 0;
    ctx.checkpoint <- Gc.minor_words ()
  end;
  Atomic.set enabled_flag b

let charge ctx =
  let now = Gc.minor_words () in
  (match ctx.cur with
  | Some c ->
      let d = now -. ctx.checkpoint -. ctx.overhead in
      if d > 0.0 then Stats.add c.a_counter (int_of_float d)
  | None -> ());
  ctx.checkpoint <- now

let push ctx c =
  charge ctx;
  if ctx.depth >= Array.length ctx.stack then begin
    let bigger = Array.make (2 * Array.length ctx.stack) None in
    Array.blit ctx.stack 0 bigger 0 (Array.length ctx.stack);
    ctx.stack <- bigger
  end;
  ctx.stack.(ctx.depth) <- ctx.cur;
  ctx.depth <- ctx.depth + 1;
  ctx.cur <- c

let pop ctx =
  charge ctx;
  if ctx.depth > 0 then begin
    ctx.depth <- ctx.depth - 1;
    ctx.cur <- ctx.stack.(ctx.depth);
    ctx.stack.(ctx.depth) <- None
  end
  else ctx.cur <- None

let enter c = if Atomic.get enabled_flag then push (Domain.DLS.get key) c
let exit_ () = if Atomic.get enabled_flag then pop (Domain.DLS.get key)

(* The enabled decision is taken ONCE per bracket: a [set_enabled] flip
   mid-step cannot leave an [enter] without its matching exit (or vice
   versa), and the pop runs even when [f] raises, so an exception in a
   machine step or callback never skews every later attribution on the
   domain. The step and its two arguments are passed apart, so the
   disabled path calls [f a b] without building a closure. *)
let bracket c f a b =
  if Atomic.get enabled_flag then begin
    let ctx = Domain.DLS.get key in
    push ctx c;
    Fun.protect ~finally:(fun () -> pop ctx) (fun () -> f a b)
  end
  else f a b

let cross c =
  if Atomic.get enabled_flag then begin
    let ctx = Domain.DLS.get key in
    charge ctx;
    ctx.cur <- c
  end

type pair = cell option * cell option

let no_cells = function None | Some (None, None) -> true | Some _ -> false

let wrap_taps alloc obs_req obs_ind =
  match alloc with
  | None | Some (None, None) -> (obs_req, obs_ind)
  | Some (above, below) ->
      ( (fun r ->
          cross below;
          obs_req r),
        fun i ->
          cross above;
          obs_ind i )
