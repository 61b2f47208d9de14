type t = {
  arena : Bytes.t;
  (* The arena viewed as a string, for handing out [Slice.t] windows.
     The cast is the documented unsafe aliasing at the heart of the
     pool: a slice is immutable only by convention, valid only while its
     slot stays loaned. It is also the identity [slot_of_slice] keys on
     — every slice made here shares this one string value physically. *)
  astr : string;
  n_slots : int;
  sl_bytes : int;
  rc : int array; (* 0 = free, n > 0 = loaned with n references *)
  free : int array; (* stack of free slot indices *)
  mutable free_top : int;
  mutable deferred : int list; (* queued releases, newest first *)
  mutable in_use : int;
  mutable hwm : int;
  mutable loans : int;
  mutable releases : int;
  mutable overruns : int;
  debug : bool;
}

let no_slot = -1

let create ?(debug = false) ~slots ~slot_bytes () =
  if slots < 1 then invalid_arg "Pool.create: need at least one slot";
  if slot_bytes < 1 then invalid_arg "Pool.create: need at least one byte";
  let arena = Bytes.create (slots * slot_bytes) in
  (* Free stack holds slots high-to-low so slot 0 is loaned first:
     allocation order is deterministic and easy to assert in tests. *)
  { arena;
    astr = Bytes.unsafe_to_string arena;
    n_slots = slots;
    sl_bytes = slot_bytes;
    rc = Array.make slots 0;
    free = Array.init slots (fun i -> slots - 1 - i);
    free_top = slots;
    deferred = [];
    in_use = 0; hwm = 0; loans = 0; releases = 0; overruns = 0;
    debug }

let slots t = t.n_slots
let slot_bytes t = t.sl_bytes
let buffer t = t.arena
let off t slot = slot * t.sl_bytes

let loan t ~len =
  if len > t.sl_bytes || t.free_top = 0 then begin
    t.overruns <- t.overruns + 1;
    no_slot
  end
  else begin
    t.free_top <- t.free_top - 1;
    let slot = t.free.(t.free_top) in
    t.rc.(slot) <- 1;
    t.loans <- t.loans + 1;
    t.in_use <- t.in_use + 1;
    if t.in_use > t.hwm then t.hwm <- t.in_use;
    slot
  end

let check_loaned t slot who =
  if slot < 0 || slot >= t.n_slots then
    invalid_arg (Printf.sprintf "Pool.%s: slot %d out of range" who slot);
  if t.rc.(slot) = 0 then
    invalid_arg
      (Printf.sprintf "Pool.%s: slot %d is not loaned (double release?)" who
         slot)

let retain t slot =
  check_loaned t slot "retain";
  t.rc.(slot) <- t.rc.(slot) + 1

let release t slot =
  check_loaned t slot "release";
  t.rc.(slot) <- t.rc.(slot) - 1;
  if t.rc.(slot) = 0 then begin
    if t.debug then
      Bytes.fill t.arena (off t slot) t.sl_bytes '\xDE';
    t.free.(t.free_top) <- slot;
    t.free_top <- t.free_top + 1;
    t.in_use <- t.in_use - 1;
    t.releases <- t.releases + 1
  end

let defer_release t slot =
  check_loaned t slot "defer_release";
  t.deferred <- slot :: t.deferred

let drain_deferred t =
  match t.deferred with
  | [] -> ()
  | ds ->
      t.deferred <- [];
      List.iter (release t) (List.rev ds)

let slice t slot ~len =
  check_loaned t slot "slice";
  if len > t.sl_bytes then invalid_arg "Pool.slice: len exceeds slot size";
  Slice.make t.astr ~off:(off t slot) ~len

let slot_of_slice t (sl : Slice.t) =
  if sl.Slice.base == t.astr then Some (sl.Slice.off / t.sl_bytes) else None

let in_use t = t.in_use
let hwm t = t.hwm
let loans t = t.loans
let releases t = t.releases
let overruns t = t.overruns
