open Sublayer.Machine

let name = "dm"
let scope = name

type conn = { local_port : int; remote_port : int }

type counters = {
  segments_out : Sublayer.Stats.counter;
  segments_in : Sublayer.Stats.counter;
  rejected : Sublayer.Stats.counter;
}

type t = {
  conn : conn;
  header : string;  (* this connection's DM header, written once *)
  pool : Bitkit.Pool.t option;
  ctrs : counters;
  sp : Sublayer.Span.ctx;
}

type up_req = Bitkit.Wirebuf.t
type up_ind = Bitkit.Slice.t
type down_req = Bitkit.Slice.t
type down_ind = Bitkit.Slice.t
type timer = Nothing.t

(* Resolved once per scope: every connection on a shared registry holds
   the same record. *)
let counters =
  Sublayer.Stats.memo (fun sc ->
      {
        segments_out = Sublayer.Stats.counter sc "segments_out";
        segments_in = Sublayer.Stats.counter sc "segments_in";
        rejected = Sublayer.Stats.counter sc "rejected";
      })

let no_span = Sublayer.Span.disabled name

let make ?stats ?span ?pool ~local_port ~remote_port () =
  let sc =
    match stats with Some sc -> sc | None -> Sublayer.Stats.unregistered scope
  in
  {
    conn = { local_port; remote_port };
    header = Segment.write_dm { Segment.src_port = local_port; dst_port = remote_port };
    pool;
    ctrs = Sublayer.Stats.memoised counters sc;
    sp = (match span with Some sp -> sp | None -> no_span);
  }

let conn t = t.conn

let handle_up_req t pdu =
  Sublayer.Stats.incr t.ctrs.segments_out;
  (* Demultiplexing is synchronous, so these mark T2 crossings rather
     than measure time; they carry no trace (DM cannot see one). *)
  Sublayer.Span.instant t.sp "segment_out";
  let wb = Bitkit.Wirebuf.push pdu ~owner:"dm" t.header in
  Segment.audit_wirebuf wb;
  match t.pool with
  | None -> (t, [ Down (Bitkit.Wirebuf.to_slice wb) ])
  | Some pool ->
      (* Emit into a loaned slot. DM's own reference dies at end of
         event; a pool-aware transmit closure that wants the bytes to
         live until channel delivery recognises the slot
         ([Pool.slot_of_slice]) and retains it before then. *)
      let slot, wire = Bitkit.Wirebuf.emit_pooled wb pool in
      if slot <> Bitkit.Pool.no_slot then Bitkit.Pool.defer_release pool slot;
      (t, [ Down wire ])

let handle_down_ind t wire =
  match Segment.decode_dm_slice wire with
  | None ->
      Sublayer.Stats.incr t.ctrs.rejected;
      (t, [ Note "short segment dropped" ])
  | Some (dm, payload) ->
      if dm.Segment.dst_port = t.conn.local_port
         && dm.Segment.src_port = t.conn.remote_port
      then begin
        Sublayer.Stats.incr t.ctrs.segments_in;
        Sublayer.Span.instant t.sp "segment_in";
        (t, [ Up payload ])
      end
      else begin
        Sublayer.Stats.incr t.ctrs.rejected;
        (t, [ Note "segment for another connection dropped" ])
      end

let handle_timer _ t = Nothing.absurd t
