module Bitseq = Bitkit.Bitseq

(* Stuffing and unstuffing as byte-at-a-time transducers.

   Both run the trigger's string-matching automaton over the stuffed
   stream: state [q] is the length of the longest suffix of the stream
   that is a prefix of the trigger, so [q = k] exactly when the last [k]
   bits are the trigger. That is the reference's window test together
   with its [emitted >= k] warm-up guard: the automaton starts at 0 and
   needs [k] real bits to reach [k], so [paper_best]'s trigger 0000001
   never matches a zeroed window. When stuffing reaches [k] it emits the
   stuffed bit and moves on it; unstuffing stays in [k], "the next bit
   must be the stuffed bit", until that bit arrives.

   A transition packs the bits it emits (at most 16 per input byte) from
   bit 24 up, their count in bits 16-23 and the next state in bits 8-15,
   so the entry masked with 0xFF00 is already the next byte's row: the
   path one byte waits on is a [land] and a load. -1 marks a wrong
   stuffed bit. The byte loops are C (stuffing_kernels.c in Bitkit); the
   per-bit steps here build their tables and take the bits after the
   last whole byte. *)

type t = {
  flag : Bitseq.t;
  find_tab : Bytes.t;  (* the flag's automaton a byte at a time, see [find_table] *)
  k : int;
  sbit : int;
  gap : int;  (* at least this many data bits precede each stuffed bit *)
  delta : int array;  (* [2 * q + bit] -> next automaton state *)
  stuff_tab : Bytes.t;  (* [(q lsl 8) lor byte] -> transition *)
  unstuff_tab : Bytes.t;
}

let pack next count bits = (bits lsl 24) lor (count lsl 16) lor (next lsl 8)
let next_of e = (e lsr 8) land 0xFF
let count_of e = (e lsr 16) land 0xFF
let bits_of e = e lsr 24

let automaton trigger =
  let k = Array.length trigger in
  Array.init (2 * (k + 1)) (fun i ->
      (* the stream ends in trigger[0, q) then [bit] *)
      let q = i / 2 in
      let s = Array.append (Array.sub trigger 0 q) [| i land 1 |] in
      let n = Array.length s in
      let rec longest l =
        let rec matches j = j >= l || (s.(n - l + j) = trigger.(j) && matches (j + 1)) in
        if matches 0 then l else longest (l - 1)
      in
      longest (Int.min n k))

let delta t q b = Array.unsafe_get t.delta ((2 * q) + b)

let stuff_step t q b =
  let q = delta t q b in
  if q = t.k then pack (delta t q t.sbit) 2 ((b lsl 1) lor t.sbit) else pack q 1 b

let unstuff_step t q b =
  if q = t.k then if b <> t.sbit then -1 else pack (delta t q b) 0 0
  else pack (delta t q b) 1 b

(* A table for the kernels: entries [f 0 .. f (n - 1)] as native-endian
   64-bit words, so the C loads an untagged entry. *)
let words n f =
  let b = Bytes.create (8 * n) in
  for i = 0 to n - 1 do
    Bytes.set_int64_ne b (8 * i) (Int64.of_int (f i))
  done;
  b

(* Eight per-bit transitions folded into one table entry. *)
let table t step =
  let entry q v =
    let rec go q i bits count =
      if i < 0 then pack q count bits
      else
        let e = step t q ((v lsr i) land 1) in
        if e < 0 then -1
        else go (next_of e) (i - 1) ((bits lsl count_of e) lor bits_of e) (count + count_of e)
    in
    go q 7 0 0
  in
  words ((t.k + 1) lsl 8) (fun i -> entry (i lsr 8) (i land 0xFF))

(* The flag's string-matching automaton read a byte at a time, its
   states kept multiplied by 256: the entry at [q lor v] is the state
   after byte [v], times 256, or [-1 - i] if the flag ends at bit [i] of
   [v]. A search stops at its first match, so the accepting state never
   starts a byte: [m] rows for a flag of [m] bits. *)
let find_table flag =
  let m = Array.length flag in
  let delta = automaton flag in
  let entry q v =
    let rec go q i =
      if i = 8 then q lsl 8
      else
        let q = delta.((2 * q) + ((v lsr (7 - i)) land 1)) in
        if q = m then -1 - i else go q (i + 1)
    in
    go q 0
  in
  words (m lsl 8) (fun i -> entry (i lsr 8) (i land 0xFF))

let compile scheme =
  let rule = scheme.Rule.rule in
  if not (Rule.rule_well_formed rule) then invalid_arg "Fast.compile: ill-formed rule";
  let trigger = Array.of_list (List.map Bool.to_int rule.Rule.trigger) in
  let k = Array.length trigger and sbit = Bool.to_int rule.Rule.stuff in
  if k > 0xFF then invalid_arg "Fast.compile: trigger longer than 255 bits";
  let delta = automaton trigger in
  let t =
    { flag = Bitseq.of_bool_list scheme.Rule.flag;
      find_tab = find_table (Array.of_list (List.map Bool.to_int scheme.Rule.flag)); k; sbit;
      (* after a stuffed bit the automaton climbs from here back to [k],
         at most one state per data bit *)
      gap = k - delta.((2 * k) + sbit); delta; stuff_tab = Bytes.empty;
      unstuff_tab = Bytes.empty }
  in
  { t with stuff_tab = table t stuff_step; unstuff_tab = table t unstuff_step }

(* Output goes into a buffer with room for the worst case: bits
   [0, nbits) of [dst], MSB first, the last partial byte padded with
   zeros. The kernels continue from there and [emit] appends the flags
   and the last bits; [take] copies out the exact frame. *)
type writer = { dst : Bytes.t; mutable nbits : int }

let writer nbits = { dst = Bytes.create ((nbits + 7) / 8); nbits = 0 }

(* Append the [n] (at most 8) low bits of [bits]. [n = 0], an unstuffing
   step that drops the stuffed bit, writes nothing: the buffer may be full. *)
let emit w bits n =
  if n > 0 then begin
    let o = w.nbits lsr 3 and r = w.nbits land 7 in
    let x = bits lsl (16 - r - n) in
    let hi = if r = 0 then 0 else Char.code (Bytes.unsafe_get w.dst o) in
    Bytes.unsafe_set w.dst o (Char.unsafe_chr (hi lor (x lsr 8)));
    if r + n > 8 then Bytes.unsafe_set w.dst (o + 1) (Char.unsafe_chr (x land 0xFF));
    w.nbits <- w.nbits + n
  end

let emit_seq w seq =
  let n = Bitseq.length seq in
  let i = ref 0 in
  while !i < n do
    let take = Int.min 8 (n - !i) in
    emit w (Bitseq.byte_at seq !i lsr (8 - take)) take;
    i := !i + 8
  done

let take w =
  let nbytes = (w.nbits + 7) / 8 in
  let data = if nbytes = Bytes.length w.dst then w.dst else Bytes.sub w.dst 0 nbytes in
  Bitseq.unsafe_of_bytes_bits data w.nbits

(* The byte loops, in stuffing_kernels.c beside Bitkit's other kernels.
   Every range is checked here before the call. A transducer's state
   crosses as [(nbits lsl 8) lor q]: the output bits written so far, the
   last partial byte left in the buffer, and the automaton state. *)
external transduce_kernel :
  Bytes.t ->
  string ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  Bytes.t ->
  (int[@untagged]) ->
  (int[@untagged]) = "bitkit_stuffing_transduce_byte" "bitkit_stuffing_transduce"
[@@noalloc]

external find_kernel :
  Bytes.t ->
  string ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) = "bitkit_stuffing_find_flag_byte" "bitkit_stuffing_find_flag"
[@@noalloc]

external deframe_kernel :
  Bytes.t ->
  Bytes.t ->
  string ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  Bytes.t ->
  (int[@untagged]) = "bitkit_stuffing_deframe_byte" "bitkit_stuffing_deframe"
[@@noalloc]

(* The per-bit steps from a kernel's packed [state] over the last [n]
   (at most 7) input bits, the low bits of [tail], MSB first. False if a
   stuffed bit is wrong or missing (the input ends in state [k]). *)
let finish t step w state n tail =
  w.nbits <- state lsr 8;
  let q = ref (state land 0xFF) and i = ref (n - 1) in
  while !i >= 0 && !q >= 0 do
    let x = step t !q ((tail lsr !i) land 1) in
    if x < 0 then q := -1
    else begin
      emit w (bits_of x) (count_of x);
      q := next_of x
    end;
    decr i
  done;
  !q >= 0 && !q <> t.k

(* [transduce t tab step w src pos len] feeds bits [pos, pos + len) of
   [src] through the transducer into [w]: the kernel takes the whole
   bytes, [finish] the rest. *)
let transduce t tab step w src pos len =
  let state = transduce_kernel tab (Bitseq.to_string src) pos (len lsr 3) w.dst (w.nbits lsl 8) in
  let n = len land 7 in
  state >= 0 && finish t step w state n (Bitseq.byte_at src (pos + len - n) lsr (8 - n))

let stuffed_bound t len = len + (len / t.gap)

let stuff t bits =
  let len = Bitseq.length bits in
  let w = writer (stuffed_bound t len) in
  ignore (transduce t t.stuff_tab stuff_step w bits 0 len);
  take w

(* Written without the sum [pos + len], which overflows at [max_int]. *)
let check_range name bits pos len =
  if pos < 0 || len < 0 || pos > Bitseq.length bits - len then invalid_arg name

let unstuff_sub t bits ~pos ~len =
  check_range "Fast.unstuff_sub" bits pos len;
  let w = writer len in
  if transduce t t.unstuff_tab unstuff_step w bits pos len then Some (take w) else None

let unstuff t bits = unstuff_sub t bits ~pos:0 ~len:(Bitseq.length bits)

let encode_sub t bits ~pos ~len =
  check_range "Fast.encode_sub" bits pos len;
  let w = writer (stuffed_bound t len + (2 * Bitseq.length t.flag)) in
  emit_seq w t.flag;
  ignore (transduce t t.stuff_tab stuff_step w bits pos len);
  emit_seq w t.flag;
  take w

let encode t bits = encode_sub t bits ~pos:0 ~len:(Bitseq.length bits)

(* The first flag at or after bit [from], or -1. *)
let search t bits from =
  let m = Bitseq.length t.flag in
  if m = 0 then from else find_kernel t.find_tab (Bitseq.to_string bits) from (Bitseq.length bits) m

let find_flag t ~from bits =
  if from < 0 || from > Bitseq.length bits then invalid_arg "Fast.find_flag";
  let i = search t bits from in
  if i < 0 then None else Some i

(* The kernel finds the closing flag and unstuffs the body in one pass;
   [finish] takes the body's last bits. An empty flag closes the frame
   where it opens. *)
let decode t bits =
  let len = Bitseq.length bits and m = Bitseq.length t.flag in
  let start = search t bits 0 in
  if start < 0 || len - start < 2 * m then None
  else if m = 0 then Some Bitseq.empty
  else begin
    let body = start + m in
    let w = writer (len - body - m) in
    let r = deframe_kernel t.find_tab t.unstuff_tab (Bitseq.to_string bits) body len m w.dst in
    if r >= 0 && finish t unstuff_step w (r lsr 10) ((r lsr 7) land 7) (r land 0x7F) then
      Some (take w)
    else None
  end
