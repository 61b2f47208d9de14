open Sublayer.Machine

let name = "rec"
let scope = name

type counters = {
  c_sent : Sublayer.Stats.counter;
  c_failures : Sublayer.Stats.counter;
  c_copied_seal : Sublayer.Stats.counter;
}

type t = {
  key : string;
  mac_key : string;
  local_port : int;
  remote_port : int;
  seq : int;
  pool : Bitkit.Pool.t option;
  ctrs : counters;
  sp : Sublayer.Span.ctx;
}

(* Resolved once per scope: every connection on a shared registry holds
   the same record. *)
let counters =
  Sublayer.Stats.memo (fun sc ->
      {
        c_sent = Sublayer.Stats.counter sc "records_sent";
        c_failures = Sublayer.Stats.counter sc "auth_failures";
        c_copied_seal = Sublayer.Stats.counter sc "copied_seal_bytes";
      })

let no_span = Sublayer.Span.disabled name

(* The MAC key is derived from the cipher key so callers manage one
   secret; block 0 of an all-zero nonce is reserved for this derivation
   (data nonces embed a non-zero port). *)
let derive_mac_key key =
  String.sub (Bitkit.Chacha20.block ~key ~counter:0 ~nonce:(String.make 12 '\000')) 0 16

let initial ?stats ?span ?pool ~key ~local_port ~remote_port () =
  if String.length key <> 32 then invalid_arg "Rec: key must be 32 bytes";
  let sc =
    match stats with Some sc -> sc | None -> Sublayer.Stats.unregistered scope
  in
  { key; mac_key = derive_mac_key key; local_port; remote_port; seq = 0; pool;
    ctrs = Sublayer.Stats.memoised counters sc;
    sp = (match span with Some sp -> sp | None -> no_span) }

let auth_failures t = Sublayer.Stats.value t.ctrs.c_failures

type up_req = Bitkit.Wirebuf.t
type up_ind = Bitkit.Slice.t
type down_req = Bitkit.Wirebuf.t
type down_ind = Bitkit.Slice.t
type timer = Nothing.t

(* A record is [le64 seq][ciphertext][tag]: 16 bytes around the PDU. *)
let overhead = 16

(* The nonce is [le16 port][0 0][le64 seq], handed to the cipher as its
   three 32-bit words; the tag covers [le16 port] (as a MAC prefix, never
   stored), seq and ciphertext. *)
let crypt t ~port ~seq src spos dst dpos len =
  Bitkit.Chacha20.xor_stream ~key:t.key ~counter:1 ~n0:(port land 0xFFFF)
    ~n1:seq ~n2:(seq lsr 32) src spos dst dpos len

(* The tag of [s]'s bytes [pos, pos+len) after the port prefix, written
   into [dst] at [dpos], unboxed. *)
let mac_into t ~port s ~pos ~len dst dpos =
  Bitkit.Siphash.tag_prefixed_into ~key:t.mac_key ~prefix:(port land 0xFFFF) ~prefix_len:2
    s ~pos ~len dst dpos

(* The tag [mac_into] would write, compared with the one at [tag_pos],
   in place and unboxed. *)
let mac_ok t ~port s ~pos ~len ~tag_pos =
  Bitkit.Siphash.verify_prefixed ~key:t.mac_key ~prefix:(port land 0xFFFF) ~prefix_len:2
    s ~pos ~len ~tag_pos

(* Seal [pdu] as record [t.seq] into [b] at [off] ([overhead] plus the
   PDU's length bytes of room): the plaintext is emitted once into place
   (the copy [emit_into] charges), encrypted there, and tagged over the
   buffer. The one writer behind both the pooled and the heap branch. *)
let seal_into t pdu b off =
  let n = Bitkit.Wirebuf.length pdu in
  let port = t.local_port and seq = t.seq in
  Bytes.set_int64_le b off (Int64.of_int seq);
  Bitkit.Wirebuf.emit_into pdu b (off + 8);
  let s = Bytes.unsafe_to_string b in
  crypt t ~port ~seq s (off + 8) b (off + 8) n;
  (* The tag lands past the hashed region, so reading the buffer through
     an alias while writing there is sound. *)
  mac_into t ~port s ~pos:off ~len:(8 + n) b (off + 8 + n)

let seal_heap t pdu =
  let b = Bytes.create (overhead + Bitkit.Wirebuf.length pdu) in
  seal_into t pdu b 0;
  Bytes.unsafe_to_string b

(* A loaned slot when the pool has one — consumed by DM's emit within
   this same event, so it is deferred-released at once — otherwise one
   fresh buffer, bit-identical on the wire. *)
let seal_record t pdu =
  match t.pool with
  | None -> Bitkit.Slice.of_string (seal_heap t pdu)
  | Some pool ->
      let total = overhead + Bitkit.Wirebuf.length pdu in
      let slot = Bitkit.Pool.loan pool ~len:total in
      if slot = Bitkit.Pool.no_slot then Bitkit.Slice.of_string (seal_heap t pdu)
      else begin
        seal_into t pdu (Bitkit.Pool.buffer pool) (Bitkit.Pool.off pool slot);
        Bitkit.Pool.defer_release pool slot;
        Bitkit.Pool.slice pool slot ~len:total
      end

(* Verify the tag in place over the received view, then decrypt once into
   one fresh buffer: the only bytes this direction allocates. *)
let open_slice t record =
  let n = Bitkit.Slice.length record in
  if n < overhead then None
  else begin
    let s = record.Bitkit.Slice.base and off = record.Bitkit.Slice.off in
    let seq = Int64.to_int (String.get_int64_le s off) in
    let port = t.remote_port in
    if not (mac_ok t ~port s ~pos:off ~len:(n - 8) ~tag_pos:(off + n - 8)) then begin
      Sublayer.Stats.incr t.ctrs.c_failures;
      None
    end
    else begin
      let len = n - overhead in
      let out = Bytes.create len in
      crypt t ~port ~seq s (off + 8) out 0 len;
      Some (Bytes.unsafe_to_string out)
    end
  end

let seal t pdu =
  let record = seal_heap t (Bitkit.Wirebuf.of_string pdu) in
  Sublayer.Stats.incr t.ctrs.c_sent;
  ({ t with seq = t.seq + 1 }, record)

let open_ t record = open_slice t (Bitkit.Slice.of_string record)

(* Encryption transforms every byte, so this sublayer is a forced
   materialisation point: the accumulated wirebuf is emitted once into
   the record, sealed there, and re-wrapped as the payload of a fresh
   wirebuf for DM. *)
let handle_up_req t pdu =
  let record = seal_record t pdu in
  Sublayer.Stats.incr t.ctrs.c_sent;
  Sublayer.Stats.add t.ctrs.c_copied_seal (Bitkit.Wirebuf.emit_cost pdu);
  if Sublayer.Span.active t.sp then
    Sublayer.Span.instant t.sp ~detail:(Printf.sprintf "seq=%d" t.seq) "seal";
  ({ t with seq = t.seq + 1 }, [ Down (Bitkit.Wirebuf.of_slice record) ])

let handle_down_ind t record =
  match open_slice t record with
  | Some pdu ->
      Sublayer.Span.instant t.sp "open";
      (t, [ Up (Bitkit.Slice.of_string pdu) ])
  | None ->
      Sublayer.Span.instant t.sp "auth_fail";
      (t, [ Note "record failed authentication; dropped" ])

let handle_timer _ (tm : timer) = Nothing.absurd tm
