(* Attribution context: one per domain (shards run one domain each, and a
   shared checkpoint would interleave their charge intervals). The cell
   stack handles reentrancy — app delivery can call back into the stack
   (auto-read credit) while a bracket is open. Outside every bracket the
   current cell is [None], so the first push charges nothing and only
   anchors the checkpoint. *)

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

(* The pop runs even when [f] raises, so an exception in a machine step
   or callback never skews every later attribution on the domain. The
   step and its two arguments are passed apart, so a bracket without a
   cell calls [f a b] without building a closure. *)
let bracket c f a b =
  match c with
  | None -> f a b
  | Some _ -> (
      let ctx = Domain.DLS.get key in
      push ctx c;
      match f a b with
      | () -> pop ctx
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          pop ctx;
          Printexc.raise_with_backtrace e bt)

let cross c =
  let ctx = Domain.DLS.get key in
  charge ctx;
  ctx.cur <- c

type pair = cell option * cell option
