(** Many-flow scale workloads.

    Staggers [flows] launches over virtual time and drives the engine (via
    {!Soak}) until every flow reports finished, then checks each for exact
    delivery. The flows themselves live behind the {!ops} closures, so the
    harness is independent of which stack carries them —
    [Transport.Fabric] provides the N-host TCP fabric used by E21. *)

type ops = {
  launch : int -> unit;          (** start flow [i] (connect/write/close) *)
  flow_finished : int -> bool;   (** flow [i] fully delivered and acked;
                                     must be stable once true *)
  flow_exact : int -> bool;      (** flow [i]'s bytes arrived exactly *)
}

type report = {
  wname : string;
  flows : int;
  launched : int;   (** launch events that actually fired *)
  exact : int;      (** flows whose delivery was byte-exact *)
  live_hwm : int;   (** high-water mark of live engine timers, from the
                        per-slice samples *)
  soak : Soak.report;
}

val ok : report -> bool
(** Soak finished clean and every flow launched and delivered exactly. *)

val pp_report : Format.formatter -> report -> unit

val run :
  ?spacing:float ->
  ?step:float ->
  ?until:float ->
  ?invariant:(unit -> string option) ->
  ?tracer:Tracer.t ->
  ?verdicts:(unit -> (string * int * int) list) ->
  ?telemetry:Telemetry.t list ->
  ?on_slice:(float -> unit) ->
  name:string ->
  engine:Engine.t ->
  flows:int ->
  ops ->
  report
(** [run ~name ~engine ~flows ops] schedules [ops.launch i] at
    [now + i * spacing] (default 10 ms apart) and soaks in [step]-sized
    slices (default 0.5) until every flow is finished or virtual time
    [until] (default 600). The report embeds the {!Soak.report}, whose
    per-slice samples record the engine's live-timer count.
    [telemetry] / [on_slice] pass through to the soak:
    telemetry ticks at every slice boundary and ring drop counts land in
    [soak.drops]. It is the one-engine case of {!run_sharded}'s loop. *)

val run_sharded :
  ?spacing:float ->
  ?step:float ->
  ?until:float ->
  ?invariant:(unit -> string option) ->
  ?tracer:Tracer.t ->
  ?verdicts:(unit -> (string * int * int) list) ->
  ?telemetry:Telemetry.t list ->
  ?on_slice:(float -> unit) ->
  name:string ->
  shard:Shard.t ->
  launch_site:(int -> int) ->
  flows:int ->
  ops ->
  report
(** {!run} over a {!Shard} group: flow [i]'s launch event is scheduled
    on shard [launch_site i] (the shard owning its client host —
    [Transport.Fabric.launch_site] exposes the placement), and each
    soak slice advances all shards through the safe-window protocol.
    The ["live"] sample is the group-wide total, so a [shards = 1]
    report is structurally identical to a multi-shard one — the
    bit-identity the scale tests compare. Pass every per-shard telemetry
    instance in [telemetry]; ticks happen between slices, when the shard
    domains are parked at the window barrier, so the reads are
    race-free. *)
