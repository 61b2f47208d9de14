module Link = Sublayer.Link

(* Records above this are not traffic, they are corruption (the outer
   stream delivers reliable bytes, but a buggy peer could still frame
   nonsense); kill the link rather than waiting forever for 4 GiB. *)
let max_frame = 1 lsl 24

let rd32 s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

let be32 b off v =
  Bytes.set b off (Char.chr ((v lsr 24) land 0xFF));
  Bytes.set b (off + 1) (Char.chr ((v lsr 16) land 0xFF));
  Bytes.set b (off + 2) (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set b (off + 3) (Char.chr (v land 0xFF))

module Deframer = struct
  (* Outer-stream bytes that are not yet a whole record stay as the
     chunks they arrived in, plus a running length; they are joined once,
     when the record they start is complete. Each byte is therefore
     copied a bounded number of times however finely the stream is cut,
     where re-concatenating on every chunk cost O(record²/chunk). *)
  type t = {
    mutable chunks : Bitkit.Slice.t list;  (* newest first *)
    mutable buffered : int;
    mutable need : int;  (* the oldest record's size, prefix included; 0 until its prefix is in *)
    mutable broken : bool;
  }

  let create () = { chunks = []; buffered = 0; need = 0; broken = false }
  let buffered t = t.buffered

  (* Join the buffered chunks into one string. The copy mirrors the
     stream reassembly it replaces, which the copy counter never saw. *)
  let flatten t =
    let b = Bytes.create t.buffered in
    ignore
      (List.fold_left
         (fun stop (c : Bitkit.Slice.t) ->
           let pos = stop - c.len in
           Bytes.blit_string c.base c.off b pos c.len;
           pos)
         t.buffered t.chunks);
    Bytes.unsafe_to_string b

  (* Deliver every whole record of [data] from [pos] as a view (the inner
     stack consumes it within this event, the same lifetime contract a
     channel delivery has) and keep the incomplete tail. *)
  let rec parse t data pos ~deliver =
    let left = String.length data - pos in
    let n = if left >= 4 then rd32 data pos else -1 in
    if n > max_frame then begin
      t.broken <- true;
      false
    end
    else if n >= 0 && left - 4 >= n then begin
      deliver (Bitkit.Slice.make data ~off:(pos + 4) ~len:n);
      parse t data (pos + 4 + n) ~deliver
    end
    else begin
      t.chunks <- (if left = 0 then [] else [ Bitkit.Slice.make data ~off:pos ~len:left ]);
      t.buffered <- left;
      t.need <- (if n >= 0 then 4 + n else 0);
      true
    end

  let push t fresh ~deliver =
    if t.broken then false
    else if t.buffered = 0 then parse t fresh 0 ~deliver
    else begin
      t.chunks <- Bitkit.Slice.of_string fresh :: t.chunks;
      t.buffered <- t.buffered + String.length fresh;
      (* Join when the head record is whole, or when its prefix was not
         yet readable: then fewer than four bytes were held, so the join
         copies little beyond this chunk, once per record. *)
      if t.buffered >= t.need then parse t (flatten t) 0 ~deliver else true
    end
end

type t = {
  conn : Host.conn;
  lk : Bitkit.Slice.t Link.t;
  rx : Deframer.t;
  mutable n_in : int;
  mutable n_out : int;
}

let deliver t record =
  t.n_in <- t.n_in + 1;
  Link.deliver t.lk record

let drain t =
  let fresh = Host.take_received t.conn in
  if fresh <> "" && not (Deframer.push t.rx fresh ~deliver:(deliver t)) then
    (* Framing is broken beyond recovery; the path below is gone. *)
    Link.kill t.lk

let transmit t s =
  let n = Bitkit.Slice.length s in
  let b = Bytes.create (n + 4) in
  be32 b 0 n;
  Bitkit.Slice.blit s b 4;
  t.n_out <- t.n_out + 1;
  Host.write t.conn (Bytes.unsafe_to_string b)

let create ?(id = "tunnel") ?mtu ?(cost = 1.) conn =
  let tref = ref None in
  let lk =
    Link.make ~id ?mtu ~cost
      ~close:(fun () -> Host.close conn)
      ~transmit:(fun s -> match !tref with Some t -> transmit t s | None -> ())
      ()
  in
  let t = { conn; lk; rx = Deframer.create (); n_in = 0; n_out = 0 } in
  tref := Some t;
  (* The stream is read from the connection's buffer, so the tunnel takes
     no [on_data] chunk (that would copy each one into a string). *)
  Host.on_event conn (function
    | `Data _ -> drain t
    | `Aborted | `Reset | `Closed -> Link.kill lk
    | _ -> ());
  (* Catch up with whatever happened before we took the callbacks over. *)
  if Host.closed conn then Link.kill lk else drain t;
  t

let link t = t.lk
let outer t = t.conn
let frames_in t = t.n_in
let frames_out t = t.n_out
