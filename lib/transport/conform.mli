(** Conformance probes for the transport T2 interfaces.

    One {!Sublayer.Machine.Probe} instantiation per boundary the Figure 5
    stacks expose — app⇄OSR (closures around the endpoint, since the app
    sits above the stack), OSR⇄RD, RD⇄CM and the opaque PDU boundaries
    CM⇄DM, CM⇄Rec, Rec⇄DM. The probes are {e always} part of the
    composition: a stack declaration names each one's module as the tap
    of the {!Sublayer.Compose.Seam} between the two sublayers it
    watches, and hands over its constructor, which the composer calls
    with that seam's cells; a probe costs no drain level of its own.
    When no {!Monitor.Runtime.t} is supplied a probe's state is a pair
    of shared no-op closures, so a monitored and an unmonitored endpoint
    have identical types, event counts and schedules. Each constructor's [?alloc] cells charge its
    crossings through {!Sublayer.Alloc.wrap_taps}; omitted, crossings
    are unattributed.

    A probe with no monitor and no cell ([?alloc] absent, or both sides
    [None]) observes nothing and charges nothing, so each constructor
    then returns its module's [inert] probe, the physically same record
    for every endpoint, and allocates nothing; the seam holding it calls
    neither observer. A monitor or a cell gets the endpoint a probe of
    its own. *)

module P_osr_rd : sig
  type t = {
    obs_req : Iface.rd_req -> unit;
    obs_ind : Iface.rd_ind -> unit;
  }

  val inert : t

  include
    Sublayer.Machine.S
      with type t := t
       and type up_req = Iface.rd_req
       and type up_ind = Iface.rd_ind
       and type down_req = Iface.rd_req
       and type down_ind = Iface.rd_ind
       and type timer = Sublayer.Machine.Nothing.t
end

module P_rd_cm : sig
  type t = {
    obs_req : Iface.cm_req -> unit;
    obs_ind : Iface.cm_ind -> unit;
  }

  val inert : t

  include
    Sublayer.Machine.S
      with type t := t
       and type up_req = Iface.cm_req
       and type up_ind = Iface.cm_ind
       and type down_req = Iface.cm_req
       and type down_ind = Iface.cm_ind
       and type timer = Sublayer.Machine.Nothing.t
end

module P_pdu : sig
  type t = {
    obs_req : Bitkit.Wirebuf.t -> unit;
    obs_ind : Bitkit.Slice.t -> unit;
  }

  val inert : t

  include
    Sublayer.Machine.S
      with type t := t
       and type up_req = Bitkit.Wirebuf.t
       and type up_ind = Bitkit.Slice.t
       and type down_req = Bitkit.Wirebuf.t
       and type down_ind = Bitkit.Slice.t
       and type timer = Sublayer.Machine.Nothing.t
end

(** Each constructor is a {!Sublayer.Compose.probe}, so a stack
    declaration hands it over as it is. *)

val osr_rd : P_osr_rd.t Sublayer.Compose.probe
(** Checked against {!Monitor.Specs.osr_rd}. *)

val msg_rd : P_osr_rd.t Sublayer.Compose.probe
(** The same boundary under the {!Msg} stack, checked against
    [Monitor.Specs.stream_rd ~upper:"msg"]. *)

val rd_cm : P_rd_cm.t Sublayer.Compose.probe
val cm_dm : P_pdu.t Sublayer.Compose.probe
val cm_rec : P_pdu.t Sublayer.Compose.probe
val rec_dm : P_pdu.t Sublayer.Compose.probe

val app :
  Monitor.Runtime.t option ->
  conn:string ->
  (Iface.app_req -> unit) * (Iface.app_ind -> unit)
(** Observation closures for the application boundary; the endpoint
    wrappers call them just before handing the request to the stack /
    the indication to the app. {!Host.stack_endpoint} asks for them only
    when a monitor is attached, and otherwise wires nothing there. *)
