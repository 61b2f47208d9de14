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

   A transition packs the bits it emits (at most 16 per input byte),
   their count and the next state into one int; -1 marks a wrong
   stuffed bit. *)

type t = {
  flag : Bitseq.t;
  flag_tab : Bytes.t;  (* the flag's automaton a byte at a time, see [flag_table] *)
  k : int;
  sbit : int;
  gap : int;  (* at least this many data bits precede each stuffed bit *)
  delta : int array;  (* [2 * q + bit] -> next automaton state *)
  stuff_tab : int array;  (* [(q lsl 8) lor byte] -> transition *)
  unstuff_tab : int array;
}

let pack next count bits = (next lsl 21) lor (count lsl 16) lor bits
let next_of e = e lsr 21
let count_of e = (e lsr 16) land 0x1F
let bits_of e = e land 0xFFFF

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

(* The flag's string-matching automaton read a byte at a time: the entry
   at [(q lsl 8) lor v] is the state after byte [v] from state [q], or
   [found + i] if the flag ends at bit [i] of [v]. A search stops at its
   first match, so the accepting state never starts a byte: [m] rows of
   states below [found], for a flag of [m] bits. *)
let found = 248

let flag_table flag =
  let m = Array.length flag in
  if m > found then invalid_arg "Fast.compile: flag longer than 248 bits";
  let delta = automaton flag in
  let entry q v =
    let rec go q i =
      if i = 8 then q
      else
        let q = delta.((2 * q) + ((v lsr (7 - i)) land 1)) in
        if q = m then found + i else go q (i + 1)
    in
    go q 0
  in
  Bytes.init (m lsl 8) (fun i -> Char.chr (entry (i lsr 8) (i land 0xFF)))

let compile scheme =
  let rule = scheme.Rule.rule in
  if not (Rule.rule_well_formed rule) then invalid_arg "Fast.compile: ill-formed rule";
  let trigger = Array.of_list (List.map Bool.to_int rule.Rule.trigger) in
  let k = Array.length trigger and sbit = Bool.to_int rule.Rule.stuff in
  let delta = automaton trigger in
  let t =
    { flag = Bitseq.of_bool_list scheme.Rule.flag;
      flag_tab = flag_table (Array.of_list (List.map Bool.to_int scheme.Rule.flag)); k; sbit;
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

(* [transduce t tab step w src pos len] feeds bits [pos, pos + len) of
   [src] through the transducer into [w]: a table entry per whole byte,
   then a step per remaining bit. It is false if a stuffed bit is wrong
   or missing (the input ends in state [k]). *)
let transduce t tab step w src pos len =
  let data = Bitseq.to_string src and dst = w.dst and sh = pos land 7 in
  let q = ref 0 and i = ref 0 and ok = ref true in
  let acc = ref w.acc and nacc = ref w.nacc and o = ref w.byte in
  while !ok && !i + 8 <= len do
    (* bits [p, p + 8) lie in [src], so byte [j + 1] exists if they
       straddle two *)
    let j = (pos + !i) lsr 3 in
    let v =
      if sh = 0 then Char.code (String.unsafe_get data j)
      else
        (((Char.code (String.unsafe_get data j) lsl 8)
         lor Char.code (String.unsafe_get data (j + 1)))
         lsr (8 - sh))
        land 0xFF
    in
    let e = Array.unsafe_get tab ((!q lsl 8) lor v) in
    if e < 0 then ok := false
    else begin
      let c = count_of e in
      acc := (!acc lsl c) lor bits_of e;
      nacc := !nacc + c;
      while !nacc >= 8 do
        nacc := !nacc - 8;
        Bytes.unsafe_set dst !o (Char.unsafe_chr ((!acc lsr !nacc) land 0xFF));
        incr o
      done;
      q := next_of e;
      i := !i + 8
    end
  done;
  w.acc <- !acc;
  w.nacc <- !nacc;
  w.byte <- !o;
  while !ok && !i < len do
    let e = step t !q (Bool.to_int (Bitseq.get src (pos + !i))) in
    if e < 0 then ok := false
    else begin
      emit w (bits_of e) (count_of e);
      q := next_of e;
      incr i
    end
  done;
  !ok && !q <> t.k

let stuffed_bound t len = len + (len / t.gap)

let stuff t bits =
  let len = Bitseq.length bits in
  let w = writer (stuffed_bound t len) in
  ignore (transduce t t.stuff_tab stuff_step w bits 0 len);
  take w

let unstuff_sub t bits ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bitseq.length bits then invalid_arg "Fast.unstuff_sub";
  let w = writer len in
  if transduce t t.unstuff_tab unstuff_step w bits pos len then Some (take w) else None

let unstuff t bits = unstuff_sub t bits ~pos:0 ~len:(Bitseq.length bits)

let encode t bits =
  let len = Bitseq.length bits in
  let w = writer (stuffed_bound t len + (2 * Bitseq.length t.flag)) in
  emit_seq w t.flag;
  ignore (transduce t t.stuff_tab stuff_step w bits 0 len);
  emit_seq w t.flag;
  take w

(* One table step per byte from [from]. Bits past the end read as zero,
   so a match that ends there is no match. The loop makes no call, so
   the automaton state stays in a register. *)
let find_flag t ~from bits =
  let len = Bitseq.length bits and m = Bitseq.length t.flag in
  if from < 0 || from > len then invalid_arg "Fast.find_flag";
  if m = 0 then Some from
  else begin
    let data = Bitseq.to_string bits and tab = t.flag_tab and sh = from land 7 in
    let n = String.length data in
    let q = ref 0 and pos = ref from in
    while !q < found && !pos < len do
      let j = !pos lsr 3 in
      let next = if j + 1 < n then Char.code (String.unsafe_get data (j + 1)) else 0 in
      let v = (((Char.code (String.unsafe_get data j) lsl 8) lor next) lsr (8 - sh)) land 0xFF in
      q := Char.code (Bytes.unsafe_get tab ((!q lsl 8) lor v));
      pos := !pos + 8
    done;
    (* the flag's last bit, if it ended in the byte just read *)
    let last = !pos - 8 + !q - found in
    if !q >= found && last < len then Some (last + 1 - m) else None
  end

let decode t bits =
  match find_flag t ~from:0 bits with
  | None -> None
  | Some start -> (
      let body = start + Bitseq.length t.flag in
      match find_flag t ~from:body bits with
      | None -> None
      | Some stop -> unstuff_sub t bits ~pos:body ~len:(stop - body))
