(** Conformance probes for the data-link T2 interfaces: ARQ⇄detector
    (with decoded sequence numbers checked against the ARQ variant's
    window discipline), detector⇄framer and framer⇄linecode (length
    sanity). Mirrors {!Transport.Conform}: the probes are always in the
    composition, each the tap of the {!Sublayer.Compose.Seam} between
    the sublayers it watches and built by the composer with that seam's
    cells, and carry no-op closures when no registry is given, and
    [?alloc] cells charge crossings through {!Sublayer.Alloc.wrap_taps}.
    A probe with no monitor and no cell observes nothing and charges
    nothing, so each constructor then returns its module's [inert] probe,
    shared by every endpoint, allocates nothing, and the seam holding it
    calls neither observer; a monitor or a cell gets the endpoint a probe
    of its own. *)

module P_arq_det : sig
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

module P_det_frm : sig
  type t = {
    obs_req : Bitkit.Slice.t -> unit;
    obs_ind : Bitkit.Slice.t -> unit;
  }

  val inert : t

  include
    Sublayer.Machine.S
      with type t := t
       and type up_req = Bitkit.Slice.t
       and type up_ind = Bitkit.Slice.t
       and type down_req = Bitkit.Slice.t
       and type down_ind = Bitkit.Slice.t
       and type timer = Sublayer.Machine.Nothing.t
end

module P_frm_line : sig
  type t = {
    obs_req : Bitkit.Bitseq.t -> unit;
    obs_ind : Bitkit.Bitseq.t -> unit;
  }

  val inert : t

  include
    Sublayer.Machine.S
      with type t := t
       and type up_req = Bitkit.Bitseq.t
       and type up_ind = Bitkit.Bitseq.t
       and type down_req = Bitkit.Bitseq.t
       and type down_ind = Bitkit.Bitseq.t
       and type timer = Sublayer.Machine.Nothing.t
end

val arq_det :
  ?alloc:Sublayer.Alloc.pair ->
  Monitor.Runtime.t option ->
  key:string ->
  variant:string ->
  window:int ->
  P_arq_det.t
(** [variant] is the ARQ module's [name] ("arq-sw", "arq-gbn",
    "arq-sr"); unknown names get the most permissive (selective-repeat)
    window discipline. Down PDUs are read from the wirebuf's outer
    header, Up PDUs from the frame, both by {!Arq.decode_pdu_slice};
    undecodable PDUs are skipped — a frame the detector wrongly let
    through is not the interface's protocol violation. *)

val det_frm :
  ?alloc:Sublayer.Alloc.pair -> Monitor.Runtime.t option -> key:string -> P_det_frm.t

val frm_line :
  ?alloc:Sublayer.Alloc.pair -> Monitor.Runtime.t option -> key:string -> P_frm_line.t
