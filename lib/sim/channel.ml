type gilbert_elliott = {
  p_good_to_bad : float;
  p_bad_to_good : float;
  loss_good : float;
  loss_bad : float;
}

type config = {
  delay : float;
  jitter : float;
  loss : float;
  duplication : float;
  corruption : float;
  reorder : float;
  reorder_extra : float;
  bandwidth : float option;
  marking : float;
  burst : gilbert_elliott option;
}

let ideal =
  { delay = 0.001; jitter = 0.; loss = 0.; duplication = 0.; corruption = 0.;
    reorder = 0.; reorder_extra = 0.; bandwidth = None; marking = 0.;
    burst = None }

let lossy p = { ideal with loss = p }

(* Stationary loss of the two-state chain is
   p_gb / (p_gb + p_bg) * loss_bad (+ the good-state term, zero here), so
   matching an i.i.d. rate [loss] at mean burst length [burst_len] pins
   both transition probabilities. *)
let burst_lossy ~loss ~burst_len =
  if loss <= 0. || loss >= 1. then invalid_arg "Channel.burst_lossy: loss in (0,1)";
  if burst_len < 1. then invalid_arg "Channel.burst_lossy: burst_len >= 1";
  let p_bad_to_good = 1. /. burst_len in
  let p_good_to_bad = loss *. p_bad_to_good /. (1. -. loss) in
  { ideal with
    burst = Some { p_good_to_bad; p_bad_to_good; loss_good = 0.; loss_bad = 1. } }

let harsh =
  { ideal with loss = 0.05; duplication = 0.02; reorder = 0.05; reorder_extra = 0.01 }

type stats = {
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable corrupted : int;
  mutable bytes_sent : int;
}

type 'a t = {
  engine : Engine.t;
  mutable cfg : config;
  size : 'a -> int;
  corrupt : Bitkit.Rng.t -> 'a -> 'a;
  mark : 'a -> 'a;
  deliver : 'a -> unit;
  stats : stats;
  tracer : Tracer.t option;
  label : string;
  crng : Bitkit.Rng.t option;
  (* Delivery scheduler: [None] schedules on [engine]; a sharded fabric
     substitutes a closure posting to the destination shard's conduit.
     The delivery thunk (including the [delivered] bump, which therefore
     mutates only destination-side state) runs wherever the closure puts
     it. *)
  sched : (after:float -> (unit -> unit) -> unit) option;
  mutable busy_until : float;
  mutable burst_bad : bool;
}

let create engine cfg ?(size = fun _ -> 0) ?(corrupt = fun _ m -> m)
    ?(mark = fun m -> m) ?tracer ?(label = "channel") ?rng ?schedule ~deliver
    () =
  { engine; cfg; size; corrupt; mark; deliver;
    stats = { sent = 0; delivered = 0; dropped = 0; duplicated = 0;
              corrupted = 0; bytes_sent = 0 };
    tracer; label; crng = rng; sched = schedule; busy_until = 0.;
    burst_bad = false }

(* Every send consumes this stream (coins and jitter draws happen even
   under [ideal]), so a channel with its own seeded [?rng] makes its
   behaviour independent of what every other channel does with the
   engine's stream — the property that lets a sharded fabric, where
   channels run on different engines, replay the exact single-engine
   outcome. *)
let rng_of t = match t.crng with Some r -> r | None -> Engine.rng t.engine

let schedule_delivery t ~after fn =
  match t.sched with
  | None -> ignore (Engine.schedule t.engine ~after fn)
  | Some s -> s ~after fn

let stats t = t.stats
let set_config t cfg = t.cfg <- cfg
let config t = t.cfg

(* Per-transmission state step, then the current state's loss rate.
   Always composed with the i.i.d. [loss] (either can drop), so a fault
   plan overlaying [loss = 1.0] blacks out a bursty link too. *)
let burst_drops t rng =
  match t.cfg.burst with
  | None -> false
  | Some g ->
      t.burst_bad <-
        (if t.burst_bad then not (Bitkit.Rng.coin rng g.p_bad_to_good)
         else Bitkit.Rng.coin rng g.p_good_to_bad);
      Bitkit.Rng.coin rng (if t.burst_bad then g.loss_bad else g.loss_good)

let transmit_once ?loan t msg =
  let rng = rng_of t in
  let burst_drop = burst_drops t rng in
  if Bitkit.Rng.coin rng t.cfg.loss || burst_drop then
    t.stats.dropped <- t.stats.dropped + 1
  else begin
    (* [aliased]: the delivered value still views the caller's pool slot.
       Corruption and marking substitute fresh heap copies, after which
       the slot's lifetime no longer matters for this delivery. *)
    let original = msg in
    let msg =
      if Bitkit.Rng.coin rng t.cfg.corruption then begin
        t.stats.corrupted <- t.stats.corrupted + 1;
        t.corrupt rng msg
      end
      else msg
    in
    let msg = if Bitkit.Rng.coin rng t.cfg.marking then t.mark msg else msg in
    let aliased = msg == original in
    let serialisation =
      match t.cfg.bandwidth with
      | None -> 0.
      | Some rate ->
          (* Messages queue behind one another on the link. *)
          let tx_time = Float.of_int (t.size msg) /. rate in
          let start = Float.max (Engine.now t.engine) t.busy_until in
          t.busy_until <- start +. tx_time;
          t.busy_until -. Engine.now t.engine
    in
    let latency =
      t.cfg.delay
      +. (if t.cfg.jitter > 0. then Bitkit.Rng.float rng *. t.cfg.jitter else 0.)
      +. (if Bitkit.Rng.coin rng t.cfg.reorder then t.cfg.reorder_extra else 0.)
      +. serialisation
    in
    (* The link's own latency decomposition, recorded at send time with
       explicit timestamps so no extra engine events (and hence no
       determinism perturbation) are introduced: [channel.queue] covers
       serialisation plus the wait behind earlier messages, and
       [channel.prop] the propagation that follows. *)
    (match t.tracer with
    | Some tr ->
        let t0 = Engine.now t.engine in
        if serialisation > 0. then begin
          let id =
            Tracer.start tr ~at:t0 ~track:t.label ~sublayer:"channel"
              "channel.queue"
          in
          ignore (Tracer.finish tr ~at:(t0 +. serialisation) id)
        end;
        let id =
          Tracer.start tr ~at:(t0 +. serialisation) ~track:t.label
            ~sublayer:"channel" "channel.prop"
        in
        ignore (Tracer.finish tr ~at:(t0 +. latency) id)
    | None -> ());
    match loan with
    | Some (pool, slot) when aliased ->
        (* This delivery reads the pool slot: hold a reference until the
           receiving cascade is done with it. The release runs right
           after [deliver] returns — by then the stack has either copied
           the bytes out or staged them in its own slots. *)
        Bitkit.Pool.retain pool slot;
        schedule_delivery t ~after:latency (fun () ->
            t.stats.delivered <- t.stats.delivered + 1;
            t.deliver msg;
            Bitkit.Pool.release pool slot)
    | Some _ | None ->
        schedule_delivery t ~after:latency (fun () ->
            t.stats.delivered <- t.stats.delivered + 1;
            t.deliver msg)
  end

let send ?loan t msg =
  (match loan with
  | Some _ when t.sched <> None ->
      (* A cross-shard delivery runs on the destination domain; releasing
         the (single-domain) pool there would race. Senders copy out of
         the slot before crossing instead. *)
      invalid_arg "Channel.send: pool loan on a cross-shard channel"
  | _ -> ());
  t.stats.sent <- t.stats.sent + 1;
  t.stats.bytes_sent <- t.stats.bytes_sent + t.size msg;
  transmit_once ?loan t msg;
  if Bitkit.Rng.coin (rng_of t) t.cfg.duplication then begin
    t.stats.duplicated <- t.stats.duplicated + 1;
    transmit_once ?loan t msg
  end;
  (* The caller's own reference dies with the send: every scheduled
     delivery retained its own above. *)
  match loan with Some (pool, slot) -> Bitkit.Pool.release pool slot | None -> ()

let corrupt_string rng s =
  if String.length s = 0 then s
  else begin
    let i = Bitkit.Rng.int rng (String.length s) in
    let bit = Bitkit.Rng.int rng 8 in
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code s.[i] lxor (1 lsl bit)));
    Bytes.to_string b
  end

let corrupt_slice rng sl =
  if Bitkit.Slice.is_empty sl then sl
  else begin
    let n = Bitkit.Slice.length sl in
    let i = Bitkit.Rng.int rng n in
    let bit = Bitkit.Rng.int rng 8 in
    let b = Bytes.create n in
    Bitkit.Slice.blit sl b 0;
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
    Bitkit.Slice.of_string (Bytes.unsafe_to_string b)
  end

let corrupt_bits rng bits =
  let n = Bitkit.Bitseq.length bits in
  if n = 0 then bits else Bitkit.Bitseq.flip bits (Bitkit.Rng.int rng n)
