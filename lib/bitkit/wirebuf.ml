(* The transmit-side half of the zero-copy data path: a packet under
   construction, as a payload slice plus a stack of already-packed
   headers (outermost first). Each sublayer [push]es its own header; the
   bytes only come together once, in [emit], when the packet reaches the
   wire. The value is persistent — pushing returns a new wirebuf sharing
   the tail — so a retransmit queue can hold one level's view while lower
   sublayers keep wrapping fresh copies of it.

   Each header arrives as its packed bytes (never a closure), so
   wirebufs remain safe for structural comparison and hashing. A packed
   header is always whole bytes, which is all the layout audit needs to
   know of its length. *)

type header = { h_owner : string; h_bytes : string }
type t = { headers : header list; hdr_len : int; payload : Slice.t }

let of_slice payload = { headers = []; hdr_len = 0; payload }
let of_string s = of_slice (Slice.of_string s)
let empty = of_slice Slice.empty

let length t = t.hdr_len + Slice.length t.payload

let emit_into t b pos0 =
  let pos = ref pos0 in
  List.iter
    (fun h ->
      let k = String.length h.h_bytes in
      Bytes.blit_string h.h_bytes 0 b !pos k;
      Slice.note_copy k;
      pos := !pos + k)
    t.headers;
  Slice.blit t.payload b !pos

let emit t =
  let b = Bytes.create (length t) in
  emit_into t b 0;
  Bytes.unsafe_to_string b

let to_slice t =
  if t.headers = [] then t.payload else Slice.of_string (emit t)

let copy_cost t =
  if t.headers = [] then Slice.copy_cost t.payload else length t

let emit_cost t = length t

let fold_chunks t ~init ~f =
  let acc =
    List.fold_left (fun acc h -> f acc h.h_bytes 0 (String.length h.h_bytes))
      init t.headers
  in
  f acc t.payload.Slice.base t.payload.Slice.off t.payload.Slice.len

(* The zero-allocation emit: a headerless whole-string payload passes
   through untouched (exactly [to_slice]'s fast path, so legacy string
   factories never consume slots); anything else lands in a pool slot,
   or — on overrun — in an ordinary heap emit. The returned slot carries
   one reference owned by the caller. *)
let emit_pooled t pool =
  if t.headers = [] && Slice.copy_cost t.payload = 0 then
    (Pool.no_slot, t.payload)
  else begin
    let n = length t in
    let slot = Pool.loan pool ~len:n in
    if slot = Pool.no_slot then (Pool.no_slot, Slice.of_string (emit t))
    else begin
      emit_into t (Pool.buffer pool) (Pool.off pool slot);
      (slot, Pool.slice pool slot ~len:n)
    end
  end

let to_string t =
  if t.headers = [] then Slice.to_string t.payload else emit t

let push t ~owner h_bytes =
  { headers = { h_owner = owner; h_bytes } :: t.headers;
    hdr_len = t.hdr_len + String.length h_bytes;
    payload = t.payload }

let appendices t =
  List.map (fun h -> (h.h_owner, 8 * String.length h.h_bytes)) t.headers

let outer_header t =
  match t.headers with
  | [] -> None
  | h :: _ -> Some (Slice.of_string h.h_bytes)
