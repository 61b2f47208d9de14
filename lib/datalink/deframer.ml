module Bitseq = Bitkit.Bitseq

type t = {
  codec : Stuffing.Fast.t;
  flen : int;
  flag : int;  (* the flag's bits, last bit lowest *)
  mutable window : int;  (* the last [flen] stream bits *)
  mutable seen : int;  (* bits shifted in since the last flag *)
  mutable synced : bool;  (* an opening flag has been consumed *)
  mutable body : Bitseq.t list;  (* the current frame's earlier chunks, newest first *)
  mutable body_bits : int;
  frames : Sublayer.Stats.counter;
  noise : Sublayer.Stats.counter;
  oversize : Sublayer.Stats.counter;
}

let max_frame_bits = 1 lsl 16

let create ?(scheme = Stuffing.Rule.hdlc) ?stats () =
  let flen = List.length scheme.Stuffing.Rule.flag in
  if flen = 0 || flen >= Sys.int_size then invalid_arg "Deframer.create: flag length";
  let sc =
    match stats with
    | Some sc -> sc
    | None -> Sublayer.Stats.unregistered "deframer"
  in
  { codec = Stuffing.Fast.compile scheme; flen;
    flag = List.fold_left (fun acc b -> (acc lsl 1) lor Bool.to_int b) 0 scheme.Stuffing.Rule.flag;
    window = 0; seen = 0; synced = false; body = []; body_bits = 0;
    frames = Sublayer.Stats.counter sc "frames_seen";
    noise = Sublayer.Stats.counter sc "noise_discarded";
    oversize = Sublayer.Stats.counter sc "oversize_discarded" }

let buffered_bits t = t.body_bits
let frames_seen t = Sublayer.Stats.value t.frames
let noise_discarded t = Sublayer.Stats.value t.noise
let oversize_discarded t = Sublayer.Stats.value t.oversize

let drop_body t =
  t.body <- [];
  t.body_bits <- 0

let reset t =
  drop_body t;
  t.window <- 0;
  t.seen <- 0;
  t.synced <- false

(* A closing flag ends at bit [stop - 1] of [chunk]; the frame is every
   bit since the opening flag, of which the chunk holds [seg, stop). *)
let close t chunk seg stop =
  let bits, pos =
    match t.body with
    | [] -> (chunk, seg)
    | body -> (Bitseq.concat (List.rev (Bitseq.sub chunk seg (stop - seg) :: body)), 0)
  in
  let len = t.body_bits + stop - seg - t.flen in
  if len = 0 then None (* idle between flags *)
  else
    match Stuffing.Fast.unstuff_sub t.codec bits ~pos ~len with
    | Some payload when Bitseq.length payload land 7 = 0 ->
        Sublayer.Stats.incr t.frames;
        Some (Bitseq.to_string payload)
    | Some _ | None ->
        Sublayer.Stats.incr t.noise;
        None

(* Every bit is shifted through the flag window once, so a frame costs
   O(frame) however it is chunked; a chunk is kept (as a slice) only
   while it belongs to an unfinished frame. *)
let push t chunk =
  let n = Bitseq.length chunk in
  let fmask = (1 lsl t.flen) - 1 in
  let out = ref [] in
  let seg = ref 0 in
  for i = 0 to n - 1 do
    t.window <- ((t.window lsl 1) lor Bool.to_int (Bitseq.get chunk i)) land fmask;
    t.seen <- t.seen + 1;
    if t.seen >= t.flen && t.window = t.flag then begin
      (* the closing flag also opens the next frame *)
      (if t.synced then
         match close t chunk !seg (i + 1) with
         | Some payload -> out := payload :: !out
         | None -> ());
      drop_body t;
      t.synced <- true;
      t.seen <- 0;
      seg := i + 1
    end
    else if t.synced && t.body_bits + (i + 1 - !seg) >= max_frame_bits + t.flen then begin
      (* No flag can end this frame within the bound: discard it and
         hunt for the next flag. *)
      Sublayer.Stats.incr t.oversize;
      drop_body t;
      t.synced <- false
    end
  done;
  if t.synced && !seg < n then begin
    t.body <- Bitseq.sub chunk !seg (n - !seg) :: t.body;
    t.body_bits <- t.body_bits + (n - !seg)
  end;
  List.rev !out
