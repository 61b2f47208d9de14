(* Each PDU has one writer and one reader, like every header in
   [Transport] and [Datalink]. The writer fills a buffer sized up front
   with big-endian stores that keep each field's low 8, 16 or 32 bits,
   negative values included. The reader checks the length before every
   load and before building a list, then reads in place. *)

let set8 = Bytes.set_uint8
let set32 b i v = Bytes.set_int32_be b i (Int32.of_int v)
let get8 = String.get_uint8
let get32 s i = Int32.to_int (String.get_int32_be s i) land 0xFFFFFFFF

(* A [size]-byte buffer whose first byte is [magic]. *)
let start magic size =
  let b = Bytes.create size in
  set8 b 0 magic;
  b

(* At least [n] bytes, the first of them [magic]. *)
let starts s magic n = String.length s >= n && get8 s 0 = magic

let rec put_addrs b pos = function
  | [] -> pos
  | a :: more ->
      set32 b pos a;
      put_addrs b (pos + 4) more

let get_addrs s pos n = List.init n (fun i -> get32 s (pos + (4 * i)))

(* Hello: magic:8 self:32 *)

let hello = 0x48 (* 'H' *)

let encode_hello self =
  let b = start hello 5 in
  set32 b 1 self;
  Bytes.unsafe_to_string b

let decode_hello s = if starts s hello 5 then Some (get32 s 1) else None

(* DV: magic:8 count:16, then dst:32 metric:8 per entry *)

let dv = 0x44 (* 'D' *)

let encode_dv entries =
  let n = List.length entries in
  let b = start dv (3 + (5 * n)) in
  Bytes.set_uint16_be b 1 n;
  List.iteri
    (fun i (dst, metric) ->
      set32 b (3 + (5 * i)) dst;
      set8 b (7 + (5 * i)) metric)
    entries;
  Bytes.unsafe_to_string b

let decode_dv s =
  if not (starts s dv 3) then None
  else
    let n = String.get_uint16_be s 1 in
    if String.length s < 3 + (5 * n) then None
    else Some (List.init n (fun i -> (get32 s (3 + (5 * i)), get8 s (7 + (5 * i)))))

(* LS: magic:8 origin:32 seq:32 count:8, then adj:32 per neighbour *)

type lsp = { origin : Addr.t; seq : int; adj : Addr.t list }

let ls = 0x4C (* 'L' *)

let encode_lsp lsp =
  let n = List.length lsp.adj in
  let b = start ls (10 + (4 * n)) in
  set32 b 1 lsp.origin;
  set32 b 5 lsp.seq;
  set8 b 9 n;
  ignore (put_addrs b 10 lsp.adj);
  Bytes.unsafe_to_string b

let decode_lsp s =
  if not (starts s ls 10) then None
  else
    let n = get8 s 9 in
    if String.length s < 10 + (4 * n) then None
    else Some { origin = get32 s 1; seq = get32 s 5; adj = get_addrs s 10 n }

(* PV: magic:8 count:16, then dst:32 len:8 and len * addr:32 per entry *)

let pv = 0x50 (* 'P' *)

let encode_pv entries =
  let size = List.fold_left (fun n (_, path) -> n + 5 + (4 * List.length path)) 3 entries in
  let b = start pv size in
  Bytes.set_uint16_be b 1 (List.length entries);
  let put pos (dst, path) =
    set32 b pos dst;
    set8 b (pos + 4) (List.length path);
    put_addrs b (pos + 5) path
  in
  ignore (List.fold_left put 3 entries);
  Bytes.unsafe_to_string b

(* Entries vary in length, so one pass checks that all [n] fit before a
   second builds them. *)
let rec pv_fits s pos n =
  n = 0
  || pos + 5 <= String.length s
     && (let next = pos + 5 + (4 * get8 s (pos + 4)) in
         next <= String.length s && pv_fits s next (n - 1))

let rec pv_entries s pos n =
  if n = 0 then []
  else
    let k = get8 s (pos + 4) in
    let entry = (get32 s pos, get_addrs s (pos + 5) k) in
    entry :: pv_entries s (pos + 5 + (4 * k)) (n - 1)

let decode_pv s =
  if not (starts s pv 3) then None
  else
    let n = String.get_uint16_be s 1 in
    if pv_fits s 3 n then Some (pv_entries s 3 n) else None
