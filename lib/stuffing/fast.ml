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
   path one byte waits on is a [land], a [lor] and a load. -1 marks a
   wrong stuffed bit. *)

type t = {
  flag : Bitseq.t;
  find_tab : int array;  (* the flag's automaton a byte at a time, see [find_table] *)
  k : int;
  sbit : int;
  gap : int;  (* at least this many data bits precede each stuffed bit *)
  delta : int array;  (* [2 * q + bit] -> next automaton state *)
  stuff_tab : int array;  (* [(q lsl 8) lor byte] -> transition *)
  unstuff_tab : int array;
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
  Array.init ((t.k + 1) lsl 8) (fun i -> entry (i lsr 8) (i land 0xFF))

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
  Array.init (m lsl 8) (fun i -> entry (i lsr 8) (i land 0xFF))

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
      gap = k - delta.((2 * k) + sbit); delta; stuff_tab = [||]; unstuff_tab = [||] }
  in
  { t with stuff_tab = table t stuff_step; unstuff_tab = table t unstuff_step }

(* Output goes through an int accumulator into a buffer with room for
   the worst case; [take] copies out the exact frame. *)
type writer = { dst : Bytes.t; mutable byte : int; mutable acc : int; mutable nacc : int }

let writer nbits = { dst = Bytes.create ((nbits + 7) / 8); byte = 0; acc = 0; nacc = 0 }

let emit w bits n =
  w.acc <- (w.acc lsl n) lor bits;
  w.nacc <- w.nacc + n;
  while w.nacc >= 8 do
    w.nacc <- w.nacc - 8;
    Bytes.unsafe_set w.dst w.byte (Char.unsafe_chr ((w.acc lsr w.nacc) land 0xFF));
    w.byte <- w.byte + 1
  done

let emit_seq w seq =
  let n = Bitseq.length seq in
  let i = ref 0 in
  while !i < n do
    let take = Int.min 8 (n - !i) in
    emit w (Bitseq.byte_at seq !i lsr (8 - take)) take;
    i := !i + 8
  done

let take w =
  let nbits = (8 * w.byte) + w.nacc in
  if w.nacc > 0 then
    Bytes.unsafe_set w.dst w.byte (Char.unsafe_chr ((w.acc lsl (8 - w.nacc)) land 0xFF));
  let nbytes = (nbits + 7) / 8 in
  let data = if nbytes = Bytes.length w.dst then w.dst else Bytes.sub w.dst 0 nbytes in
  Bitseq.unsafe_of_bytes_bits data nbits

external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external swap32 : int32 -> int32 = "%bswap_int32"

(* [transduce t tab step w src pos len] feeds bits [pos, pos + len) of
   [src] through the transducer into [w]: a table entry per whole byte,
   then a step per remaining bit. It is false if a stuffed bit is wrong
   or missing (the input ends in state [k]).

   The accumulator leaves in one 32-bit store once 32 bits are pending.
   Those are output bits, so the store stays inside the worst-case
   buffer, which [emit] and [take] also write unchecked. The store is
   unchecked as well: [Bytes.set_int32_be]'s bounds check spilled the
   loop's bounds to the stack and cost 4 % of [datalink] goodput
   (EXPERIMENTS.md, E39). *)
let transduce t tab step w src pos len =
  let data = Bitseq.to_string src and dst = w.dst and sh = pos land 7 in
  let j = ref (pos lsr 3) and stop = (pos lsr 3) + (len lsr 3) in
  let e = ref 0 and acc = ref w.acc and nacc = ref w.nacc and o = ref w.byte in
  while !j < stop do
    (* bits [8j + sh, 8j + sh + 8) lie in [src], so byte [j + 1] exists
       if they straddle two *)
    let v =
      if sh = 0 then Char.code (String.unsafe_get data !j)
      else
        (((Char.code (String.unsafe_get data !j) lsl 8)
         lor Char.code (String.unsafe_get data (!j + 1)))
         lsr (8 - sh))
        land 0xFF
    in
    let x = Array.unsafe_get tab ((!e land 0xFF00) lor v) in
    e := x;
    if x < 0 then j := stop
    else begin
      let c = count_of x in
      acc := (!acc lsl c) lor bits_of x;
      nacc := !nacc + c;
      if !nacc >= 32 then begin
        nacc := !nacc - 32;
        let x = Int32.of_int (!acc lsr !nacc) in
        set32u dst !o (if Sys.big_endian then x else swap32 x);
        o := !o + 4
      end;
      incr j
    end
  done;
  if !e < 0 then false
  else begin
    w.acc <- !acc;
    w.nacc <- !nacc;
    w.byte <- !o;
    (* write out the whole bytes still pending *)
    emit w 0 0;
    let q = ref (next_of !e) and i = ref (len land lnot 7) and ok = ref true in
    while !ok && !i < len do
      let x = step t !q (Bool.to_int (Bitseq.get src (pos + !i))) in
      if x < 0 then ok := false
      else begin
        emit w (bits_of x) (count_of x);
        q := next_of x;
        incr i
      end
    done;
    !ok && !q <> t.k
  end

let stuffed_bound t len = len + (len / t.gap)

let stuff t bits =
  let len = Bitseq.length bits in
  let w = writer (stuffed_bound t len) in
  ignore (transduce t t.stuff_tab stuff_step w bits 0 len);
  take w

let check_range name bits pos len =
  if pos < 0 || len < 0 || pos + len > Bitseq.length bits then invalid_arg name

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

(* One table step per byte from [from], each 8-bit window shifted out
   of two bytes (a byte-aligned [from] shifts by nothing). Bits past the
   end read as zero, so a match that ends there is no match. The loop
   makes no call, so the automaton state stays in a register. *)
let find_flag t ~from bits =
  let len = Bitseq.length bits and m = Bitseq.length t.flag in
  if from < 0 || from > len then invalid_arg "Fast.find_flag";
  if m = 0 then Some from
  else begin
    let data = Bitseq.to_string bits and tab = t.find_tab and sh = from land 7 in
    let n = String.length data in
    (* the windows starting at bits [8j + sh] below [len] *)
    let j = ref (from lsr 3) and stop = (len - sh + 7) lsr 3 and q = ref 0 in
    while !q >= 0 && !j < stop do
      let next = if !j + 1 < n then Char.code (String.unsafe_get data (!j + 1)) else 0 in
      let v = (((Char.code (String.unsafe_get data !j) lsl 8) lor next) lsr (8 - sh)) land 0xFF in
      q := Array.unsafe_get tab (!q lor v);
      incr j
    done;
    (* the flag's last bit, if it ended in the window just read *)
    let last = (8 * (!j - 1)) + sh - 1 - !q in
    if !q < 0 && last < len then Some (last + 1 - m) else None
  end

let decode t bits =
  match find_flag t ~from:0 bits with
  | None -> None
  | Some start -> (
      let body = start + Bitseq.length t.flag in
      match find_flag t ~from:body bits with
      | None -> None
      | Some stop -> unstuff_sub t bits ~pos:body ~len:(stop - body))
