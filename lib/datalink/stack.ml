module Compose = Sublayer.Compose

type spec = {
  arq : (module Arq.S);
  arq_config : Arq.config;
  detector : Detector.t;
  framer : Framer.t;
  linecode : Linecode.t;
}

let default_spec =
  {
    arq = (module Arq_go_back_n);
    arq_config = Arq.default_config;
    detector = Detector.crc Bitkit.Crc.crc32;
    framer = Framer.hdlc Stuffing.Rule.hdlc;
    linecode = Linecode.nrz;
  }

module I = Sublayer.Instrument

type endpoint = {
  send : string -> unit;
  from_wire : Bitkit.Bitseq.t -> unit;
  arq_stats : unit -> Arq.stats;
  is_idle : unit -> bool;
  arq_gave_up : unit -> bool;
  halt : unit -> unit;
  mutable killed : bool;  (* the link below died under us *)
}

let send t payload = t.send payload
let from_wire t bits = t.from_wire bits
let arq_stats t = t.arq_stats ()
let is_idle t = t.is_idle ()
let gave_up t = t.killed || t.arq_gave_up ()

(* Error detection over framing over line coding; the ARQ on top is the
   spec's, so its seam is declared once per ARQ module, by the first
   endpoint that runs it. *)
module Lower =
  Compose.Seam (Layers.Error_detection) (Conform.P_det_frm)
    (Compose.Seam (Layers.Framing) (Conform.P_frm_line) (Compose.Last (Layers.Line_coding)))

module type DECLARED = sig
  val endpoint :
    Sim.Engine.t ->
    ins:I.t ->
    name:string ->
    spec ->
    transmit:(Bitkit.Bitseq.t -> unit) ->
    deliver:(string -> unit) ->
    endpoint
end

let declare (module A : Arq.S) =
  (module struct
    module S = Compose.Seam (A) (Conform.P_arq_det) (Lower)
    module R = Compose.Run (S)

    let endpoint engine ~ins ~name spec ~transmit ~deliver =
      let pool = ins.I.pool in
      let now () = Sim.Engine.now engine in
      (* Each sublayer's scope and span are passed to it directly: a
         helper closure for them would cost every endpoint words. *)
      let r =
        let open Layers in
        let ed = Error_detection.scope and fr = Framing.scope and lc = Line_coding.scope in
        R.create engine ~ins ~name ~transmit ~deliver
          ( A.initial ?stats:(I.scope ins A.scope)
              ?span:(I.span ins ~now ~track:name A.scope)
              spec.arq_config,
            Conform.arq_det ~variant:A.name ~window:spec.arq_config.Arq.window,
            ( Error_detection.make ?stats:(I.scope ins ed) ?span:(I.span ins ~now ~track:name ed)
                ?pool spec.detector,
              Conform.det_frm,
              ( Framing.make ?stats:(I.scope ins fr) ?span:(I.span ins ~now ~track:name fr)
                  spec.framer,
                Conform.frm_line,
                Line_coding.make ?stats:(I.scope ins lc) ?span:(I.span ins ~now ~track:name lc)
                  spec.linecode ) ) )
      in
      let arq () = S.upper (R.state r) in
      {
        send = R.from_above r;
        from_wire = R.from_below r;
        arq_stats = (fun () -> A.stats (arq ()));
        is_idle = (fun () -> A.idle (arq ()));
        arq_gave_up = (fun () -> A.gave_up (arq ()));
        halt = (fun () -> R.halt r);
        killed = false;
      }
  end : DECLARED)

let declared = Compose.memo declare

let endpoint engine ?(ins = I.none) ~name spec ~transmit ~deliver =
  (* The detector's loans live until the end of the event that framed
     them; the engine hook is what frees them. Attaching per endpoint is
     idempotent in effect — draining an empty deferred list is a no-op. *)
  Option.iter
    (fun p -> Sim.Engine.after_event engine (fun () -> Bitkit.Pool.drain_deferred p))
    ins.I.pool;
  let name = I.tagged_name ins name in
  (match (ins.I.telemetry, ins.I.stats) with
  | Some tele, Some reg -> Sublayer.Stats.telemetry_source tele ~name reg
  | _ -> ());
  let (module D) = declared spec.arq in
  D.endpoint engine ~ins ~name spec ~transmit ~deliver

(* The Link-seam variant: transmit into any [Sublayer.Link], receive as
   its attached callback, and treat link death as ARQ give-up (the
   sender must stop retransmitting into a dead path). *)
let over_link engine ?ins ~name spec ~link ~deliver =
  let ep =
    endpoint engine ?ins ~name spec
      ~transmit:(fun bits -> Sublayer.Link.transmit link bits)
      ~deliver
  in
  Sublayer.Link.attach link (fun bits -> ep.from_wire bits);
  Sublayer.Link.on_death link (fun () ->
      ep.halt ();
      ep.killed <- true);
  ep

type link = {
  a : endpoint;
  b : endpoint;
  a_to_b : Bitkit.Bitseq.t Sim.Channel.t;
  b_to_a : Bitkit.Bitseq.t Sim.Channel.t;
  received_at_a : string Queue.t;
  received_at_b : string Queue.t;
}

let bit_channel engine config ~deliver =
  Sim.Channel.create engine config
    ~size:(fun bits -> (Bitkit.Bitseq.length bits + 7) / 8)
    ~corrupt:Sim.Channel.corrupt_bits ~deliver ()

let link engine ?stats_a ?stats_b ?tracer ?monitors ?telemetry ?pool
    config spec =
  let received_at_a = Queue.create () in
  let received_at_b = Queue.create () in
  (* Each endpoint sits on a [Sublayer.Link]; the channels deliver into
     the links, the links into the endpoints. *)
  let link_a = Sublayer.Link.make ~id:"A" () in
  let link_b = Sublayer.Link.make ~id:"B" () in
  let a_to_b =
    bit_channel engine config ~deliver:(fun bits -> Sublayer.Link.deliver link_b bits)
  in
  let b_to_a =
    bit_channel engine config ~deliver:(fun bits -> Sublayer.Link.deliver link_a bits)
  in
  Sublayer.Link.set_transmit link_a (fun bits -> Sim.Channel.send a_to_b bits);
  Sublayer.Link.set_transmit link_b (fun bits -> Sim.Channel.send b_to_a bits);
  let ins side = I.v ?stats:side ?tracer ?monitors ?telemetry ?pool () in
  let a =
    over_link engine ~ins:(ins stats_a) ~name:"A" spec ~link:link_a
      ~deliver:(fun payload -> Queue.add payload received_at_a)
  in
  let b =
    over_link engine ~ins:(ins stats_b) ~name:"B" spec ~link:link_b
      ~deliver:(fun payload -> Queue.add payload received_at_b)
  in
  { a; b; a_to_b; b_to_a; received_at_a; received_at_b }

let transfer engine ?(deadline = 3600.) link payloads =
  List.iter (fun p -> link.a.send p) payloads;
  (* Run until the sender has nothing outstanding; timers keep the event
     queue non-empty, so poll in bounded slices of virtual time. *)
  let rec drive () =
    if (not (link.a.is_idle ())) && Sim.Engine.now engine < deadline then begin
      Sim.Engine.run ~until:(Sim.Engine.now engine +. 1.0) engine;
      drive ()
    end
  in
  drive ();
  (* Let the final acknowledgements drain. *)
  Sim.Engine.run ~until:(Sim.Engine.now engine +. 5.0) engine;
  List.of_seq (Queue.to_seq link.received_at_b)
