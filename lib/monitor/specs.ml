open Spec

(* Interface contracts, one spec per T2 crossing. Conventions:
   - the first state listed is initial, registers start at 0;
   - Down = the upper sublayer sending a request, Up = the lower
     sublayer delivering an indication;
   - a terminal "done" state is fully permissive: once a connection has
     torn down, late retransmissions and stale deliveries are the
     channel's business, not a protocol violation. *)

let d m = (Down, m)
let u m = (Up, m)

(* Application <-> OSR. The app may poke the socket whenever it likes
   (chaos clients close before the handshake finishes), but the stream
   indications are ordered: Established precedes any Data, terminal
   indications end the stream. *)
let app =
  make ~name:"osr-app" ~upper:"app" ~lower:"osr"
    ~states:[ "idle"; "opening"; "estab"; "done" ]
    ~msgs:
      [ d "connect"; d "listen"; d "write"; d "read"; d "close";
        u "established"; u "data"; u "peer_closed"; u "closed"; u "reset";
        u "aborted" ]
    ([ rule "idle" (d "connect") "opening";
       rule "idle" (d "listen") "opening" ]
    @ loops "opening" [ d "write"; d "read"; d "close" ]
    @ [ rule "opening" (u "established") "estab";
        rule "opening" (u "closed") "done";
        rule "opening" (u "reset") "done";
        rule "opening" (u "aborted") "done" ]
    @ loops "estab"
        [ d "write"; d "read"; d "close"; u "established"; u "data";
          u "peer_closed" ]
    @ [ rule "estab" (u "closed") "done";
        rule "estab" (u "reset") "done";
        rule "estab" (u "aborted") "done" ]
    @ loops "done"
        [ d "write"; d "read"; d "close"; u "peer_closed"; u "closed";
          u "reset"; u "aborted" ])

(* OSR <-> RD. r0 = transmit high-water mark (next expected offset),
   r1 = cumulative-ack high-water mark. Offsets are absolute stream
   offsets, so plain integer guards apply. No transmit or block traffic
   may precede Established; each Transmit starts exactly at the previous
   high-water mark; acks are monotone and never overtake transmission. *)
let stream_rd ~upper =
  let stream st goto_closing =
    loops st
      [ d "set_block"; d "announce_block"; u "established"; u "segment";
        u "loss"; u "peer_fin" ]
    @ [ rule st (d "transmit")
          ~guard:(Cmp (A, Eq, Reg 0))
          ~acts:[ Set (0, Add (A, B)) ]
          st;
        rule st (u "acked")
          ~guard:(All [ Cmp (A, Ge, Reg 1); Cmp (A, Le, Reg 0) ])
          ~acts:[ Set (1, A) ]
          st;
        rule st (d "close") goto_closing;
        rule st (u "closed") "done";
        rule st (u "reset") "done";
        rule st (u "aborted") "done" ]
  in
  make ~name:(upper ^ "-rd") ~upper ~lower:"rd"
    ~states:[ "idle"; "opening"; "estab"; "closing"; "done" ]
    ~msgs:
      [ d "connect"; d "listen"; d "close"; d "transmit"; d "set_block";
        d "announce_block";
        u "established"; u "segment"; u "acked"; u "loss"; u "peer_fin";
        u "closed"; u "reset"; u "aborted" ]
    ([ rule "idle" (d "connect") "opening";
       rule "idle" (d "listen") "opening";
       rule "opening" (u "established") "estab";
       rule "opening" (u "closed") "done";
       rule "opening" (u "reset") "done";
       rule "opening" (u "aborted") "done" ]
    @ stream "estab" "closing"
    @ stream "closing" "closing"
    @ loops "done"
        [ d "close"; d "transmit"; d "set_block"; d "announce_block";
          u "established"; u "segment"; u "acked"; u "loss"; u "peer_fin";
          u "closed"; u "reset"; u "aborted" ])

(* RD <-> CM. No payload Pdu in either direction before Established —
   an RD that transmits early or a CM that delivers in Syn_sent is
   caught in "opening". Established may repeat (the Watson CM announces
   once on contact and again when the peer ISN is learned). *)
let rd_cm =
  make ~name:"rd-cm" ~upper:"rd" ~lower:"cm"
    ~states:[ "idle"; "opening"; "estab"; "closing"; "done" ]
    ~msgs:
      [ d "connect"; d "listen"; d "close"; d "abort"; d "pdu";
        u "established"; u "pdu"; u "peer_fin"; u "closed"; u "reset" ]
    ([ rule "idle" (d "connect") "opening";
       rule "idle" (d "listen") "opening";
       rule "opening" (u "established") "estab";
       rule "opening" (u "closed") "done";
       rule "opening" (u "reset") "done";
       rule "opening" (d "abort") "done" ]
    @ loops "estab" [ d "pdu"; u "pdu"; u "established"; u "peer_fin" ]
    @ [ rule "estab" (d "close") "closing";
        rule "estab" (d "abort") "done";
        rule "estab" (u "closed") "done";
        rule "estab" (u "reset") "done" ]
    @ loops "closing"
        [ d "pdu"; d "close"; u "pdu"; u "established"; u "peer_fin" ]
    @ [ rule "closing" (d "abort") "done";
        rule "closing" (u "closed") "done";
        rule "closing" (u "reset") "done" ]
    @ loops "done"
        [ d "close"; d "abort"; d "pdu"; u "established"; u "pdu";
          u "peer_fin"; u "closed"; u "reset" ])

(* Opaque PDU boundaries: single state, length sanity only. *)
let opaque ~name ~upper ~lower ?(min_up = 0) () =
  make ~name ~upper ~lower
    ~states:[ "xfer" ]
    ~msgs:[ d "pdu"; u "pdu" ]
    [ rule "xfer" (d "pdu") ~guard:(Cmp (A, Ge, Const 1)) "xfer";
      rule "xfer" (u "pdu") ~guard:(Cmp (A, Ge, Const min_up)) "xfer" ]

let osr_rd = stream_rd ~upper:"osr"

type arq_variant = Sw | Gbn | Sr

let arq_variant_of_name = function
  | "arq-sw" -> Some Sw
  | "arq-gbn" -> Some Gbn
  | "arq-sr" -> Some Sr
  | _ -> None

(* ARQ <-> detector, in 16-bit sequence space (modular windows).
   r0 = send-side window base estimate, advanced by acks coming Up;
   r1 = receive-side base estimate, advanced by the acks we send Down.
   Per variant:
   - Stop-and-wait: the one outstanding sequence is exactly r0; an ack
     for it advances, anything else is stale. Inbound data is the peer's
     single outstanding seq, which is r1 (new) or r1 - 1 (our ack lost).
   - Go-back-N: transmitted data lies in [r0, r0 + w); a cumulative ack
     advancing into (r0, r0 + w] moves the base, stale acks are ignored.
     Acks we send are the cumulative next-expected, advancing at most w
     at a time. Inbound data lies in [r1 - w, r1 + w): the peer's base
     trails our next-expected by at most w.
   - Selective repeat: acks are individual, so the base estimate tracks
     the highest ack + 1 and windows get a slack factor of two. *)
let arq ~variant ~window =
  let w = max 1 window in
  let m = 65536 in
  let within x base offset bound =
    Within { x; base; offset; modulo = m; bound }
  in
  let msgs = [ d "data"; d "ack"; u "data"; u "ack" ] in
  let rules =
    match variant with
    | Sw ->
        [ rule "xfer" (d "data") ~guard:(within A (Reg 0) 0 1) "xfer";
          rule "xfer" (u "ack") ~guard:(within A (Reg 0) 0 1)
            ~acts:[ Set (0, Add (A, Const 1)) ]
            "xfer";
          rule "xfer" (u "ack") "xfer";
          rule "xfer" (d "ack")
            ~guard:(within A (Reg 1) 0 1)
            ~acts:[ Set (1, Add (A, Const 1)) ]
            "xfer";
          rule "xfer" (d "ack") "xfer";
          rule "xfer" (u "data") ~guard:(within A (Reg 1) 1 2) "xfer" ]
    | Gbn ->
        [ rule "xfer" (d "data") ~guard:(within A (Reg 0) 0 w) "xfer";
          rule "xfer" (u "ack")
            ~guard:(within A (Reg 0) (m - 1) w)
            ~acts:[ Set (0, A) ]
            "xfer";
          rule "xfer" (u "ack") "xfer";
          rule "xfer" (d "ack")
            ~guard:(within A (Reg 1) (m - 1) w)
            ~acts:[ Set (1, A) ]
            "xfer";
          rule "xfer" (d "ack") "xfer";
          rule "xfer" (u "data") ~guard:(within A (Reg 1) w (2 * w)) "xfer" ]
    | Sr ->
        [ rule "xfer" (d "data") ~guard:(within A (Reg 0) w (2 * w)) "xfer";
          rule "xfer" (u "ack") ~guard:(within A (Reg 0) 0 w)
            ~acts:[ Set (0, Add (A, Const 1)) ]
            "xfer";
          rule "xfer" (u "ack") "xfer";
          rule "xfer" (d "ack")
            ~guard:(within A (Reg 1) 0 (2 * w))
            ~acts:[ Set (1, Add (A, Const 1)) ]
            "xfer";
          rule "xfer" (d "ack") "xfer";
          rule "xfer" (u "data")
            ~guard:(within A (Reg 1) (2 * w) (4 * w))
            "xfer" ]
  in
  let vname = match variant with Sw -> "arq-sw" | Gbn -> "arq-gbn" | Sr -> "arq-sr" in
  make ~name:"arq-det" ~upper:vname ~lower:"detector"
    ~states:[ "xfer" ] ~msgs rules

(* Router <-> FIB. r0 = table size according to the write traffic the
   monitor has seen. A lookup hit against a table known to be empty, or
   removing a present entry when the size says zero, is an
   inconsistency between the routing and forwarding sublayers. *)
let fib =
  make ~name:"router-fib" ~upper:"routing" ~lower:"fib"
    ~states:[ "active" ]
    ~msgs:[ d "insert"; d "remove"; u "lookup" ]
    [ rule "active" (d "insert") ~acts:[ Set (0, Add (Reg 0, A)) ] "active";
      rule "active" (d "remove")
        ~guard:(Cmp (A, Eq, Const 0))
        "active";
      rule "active" (d "remove")
        ~guard:(Cmp (Reg 0, Ge, Const 1))
        ~acts:[ Set (0, Sub (Reg 0, A)) ]
        "active";
      rule "active" (u "lookup") ~guard:(Cmp (A, Eq, Const 0)) "active";
      rule "active" (u "lookup")
        ~guard:(Cmp (Reg 0, Ge, Const 1))
        "active" ]
