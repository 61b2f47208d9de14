type t = {
  name : string;
  overhead_bytes : int;
  protect : string -> string;
  verify : string -> string option;
  verify_slice : Bitkit.Slice.t -> Bitkit.Slice.t option;
  chain_digest_into : Bitkit.Wirebuf.t -> Bytes.t -> int -> unit;
}

(* Write an [n]-byte big-endian int digest straight into the target —
   the chain-digest twin of [be_bytes], allocation-free. *)
let put_be b pos v n =
  for i = 0 to n - 1 do
    Bytes.set b (pos + i) (Char.chr ((v lsr (8 * (n - 1 - i))) land 0xFF))
  done

let slice_body sl n =
  let len = Bitkit.Slice.length sl in
  if len < n then None else Some (Bitkit.Slice.sub sl ~pos:0 ~len:(len - n))

let int_of_be_slice sl pos n =
  let v = ref 0 in
  for i = 0 to n - 1 do
    v := (!v lsl 8) lor Char.code (Bitkit.Slice.get sl (pos + i))
  done;
  !v

let none =
  { name = "none"; overhead_bytes = 0; protect = Fun.id;
    verify = (fun s -> Some s); verify_slice = (fun sl -> Some sl);
    chain_digest_into = (fun _ _ _ -> ()) }

let split_tail s n =
  let len = String.length s in
  if len < n then None else Some (String.sub s 0 (len - n), String.sub s (len - n) n)

let be_bytes v n =
  String.init n (fun i -> Char.chr ((v lsr (8 * (n - 1 - i))) land 0xFF))

let int_of_be s =
  String.fold_left (fun acc c -> (acc lsl 8) lor Char.code c) 0 s

let parity =
  {
    name = "parity";
    overhead_bytes = 1;
    protect = (fun s -> s ^ String.make 1 (if Bitkit.Checksum.parity s then '\001' else '\000'));
    verify =
      (fun s ->
        match split_tail s 1 with
        | None -> None
        | Some (body, tag) ->
            let expect = if Bitkit.Checksum.parity body then '\001' else '\000' in
            if tag.[0] = expect then Some body else None);
    verify_slice =
      (fun sl ->
        match slice_body sl 1 with
        | None -> None
        | Some body ->
            let expect =
              if
                Bitkit.Checksum.parity_sub body.Bitkit.Slice.base
                  ~pos:body.Bitkit.Slice.off ~len:body.Bitkit.Slice.len
              then '\001'
              else '\000'
            in
            if Bitkit.Slice.get sl (Bitkit.Slice.length sl - 1) = expect then
              Some body
            else None);
    chain_digest_into =
      (fun wb b pos ->
        let odd =
          Bitkit.Wirebuf.fold_chunks wb ~init:Bitkit.Checksum.parity_init
            ~f:(fun st base off len -> Bitkit.Checksum.parity_update st base ~pos:off ~len)
        in
        Bytes.set b pos (if Bitkit.Checksum.parity_finish odd then '\001' else '\000'));
  }

(* [digest_sub] computes the same digest as [digest] over a substring in
   place, so slice verification never copies the frame body; [chain]
   folds the matching streaming digest over a wirebuf's header chain and
   payload, so transmit-side protection never flattens the packet. *)
let tagged name n digest digest_sub chain =
  {
    name;
    overhead_bytes = n;
    protect = (fun s -> s ^ be_bytes (digest s) n);
    verify =
      (fun s ->
        match split_tail s n with
        | None -> None
        | Some (body, tag) -> if int_of_be tag = digest body then Some body else None);
    verify_slice =
      (fun sl ->
        match slice_body sl n with
        | None -> None
        | Some body ->
            let d =
              digest_sub body.Bitkit.Slice.base ~pos:body.Bitkit.Slice.off
                ~len:body.Bitkit.Slice.len
            in
            if int_of_be_slice sl (Bitkit.Slice.length sl - n) n = d then
              Some body
            else None);
    chain_digest_into = (fun wb b pos -> put_be b pos (chain wb) n);
  }

let internet =
  tagged "internet" 2 Bitkit.Checksum.internet Bitkit.Checksum.internet_sub
    (fun wb ->
      Bitkit.Checksum.internet_finish
        (Bitkit.Wirebuf.fold_chunks wb ~init:Bitkit.Checksum.internet_init
           ~f:(fun st base off len ->
             Bitkit.Checksum.internet_update st base ~pos:off ~len)))

let fletcher16 =
  tagged "fletcher16" 2 Bitkit.Checksum.fletcher16 Bitkit.Checksum.fletcher16_sub
    (fun wb ->
      Bitkit.Checksum.fletcher16_finish
        (Bitkit.Wirebuf.fold_chunks wb ~init:Bitkit.Checksum.fletcher16_init
           ~f:(fun st base off len ->
             Bitkit.Checksum.fletcher16_update st base ~pos:off ~len)))

let crc params =
  let engine = Bitkit.Crc.make params in
  let update st base off len = Bitkit.Crc.update engine st base off len in
  let bytes = (params.Bitkit.Crc.width + 7) / 8 in
  let tag_of d =
    String.init bytes (fun i ->
        Char.chr
          (Int64.to_int
             (Int64.logand (Int64.shift_right_logical d (8 * (bytes - 1 - i))) 0xFFL)))
  in
  {
    name = params.Bitkit.Crc.name;
    overhead_bytes = bytes;
    protect = (fun s -> s ^ tag_of (Bitkit.Crc.digest engine s));
    verify =
      (fun s ->
        match split_tail s bytes with
        | None -> None
        | Some (body, tag) ->
            if String.equal tag (tag_of (Bitkit.Crc.digest engine body)) then
              Some body
            else None);
    verify_slice =
      (fun sl ->
        match slice_body sl bytes with
        | None -> None
        | Some body ->
            let d =
              Bitkit.Crc.digest_sub engine body.Bitkit.Slice.base
                body.Bitkit.Slice.off body.Bitkit.Slice.len
            in
            (* the trailer read in place: the big-endian [d] of [tag_of] *)
            let tag = ref 0L in
            for i = Bitkit.Slice.length sl - bytes to Bitkit.Slice.length sl - 1 do
              tag :=
                Int64.logor (Int64.shift_left !tag 8)
                  (Int64.of_int (Char.code (Bitkit.Slice.get sl i)))
            done;
            if Int64.equal !tag d then Some body else None);
    chain_digest_into =
      (fun wb b pos ->
        let d =
          Bitkit.Crc.finish engine
            (Bitkit.Wirebuf.fold_chunks wb ~init:(Bitkit.Crc.init engine) ~f:update)
        in
        for i = 0 to bytes - 1 do
          Bytes.set b (pos + i)
            (Char.chr
               (Int64.to_int
                  (Int64.logand (Int64.shift_right_logical d (8 * (bytes - 1 - i))) 0xFFL)))
        done);
  }

let residual_error_rate det rng ~trials ~payload_len ~flips =
  let undetected = ref 0 in
  for _ = 1 to trials do
    let payload = Bitkit.Rng.bytes rng payload_len in
    let frame = Bytes.of_string (det.protect payload) in
    let nbits = 8 * Bytes.length frame in
    for _ = 1 to flips do
      let bit = Bitkit.Rng.int rng nbits in
      let byte = bit lsr 3 in
      Bytes.set frame byte
        (Char.chr (Char.code (Bytes.get frame byte) lxor (0x80 lsr (bit land 7))))
    done;
    let corrupted = Bytes.to_string frame in
    if corrupted <> det.protect payload then
      match det.verify corrupted with Some _ -> incr undetected | None -> ()
  done;
  Float.of_int !undetected /. Float.of_int trials
