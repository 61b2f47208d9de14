(* Just enough JSON to read BENCHMARK.json and the benchmark's own result
   records back. *)

type t = Null | Bool of bool | Num of float | Str of string | Arr of t list | Obj of (string * t) list

exception Error of string

let parse s =
  let n = String.length s and i = ref 0 in
  let fail what = raise (Error (Printf.sprintf "%s at offset %d" what !i)) in
  let rec skip () =
    if !i < n && (s.[!i] = ' ' || s.[!i] = '\n' || s.[!i] = '\r' || s.[!i] = '\t') then begin
      incr i;
      skip ()
    end
  in
  let expect c =
    skip ();
    if !i < n && s.[!i] = c then incr i else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !i + String.length word <= n && String.sub s !i (String.length word) = word then begin
      i := !i + String.length word;
      v
    end
    else fail "bad literal"
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !i >= n then fail "unterminated string";
      let c = s.[!i] in
      incr i;
      if c = '"' then Buffer.contents b
      else if c = '\\' then begin
        if !i >= n then fail "unterminated escape";
        let e = s.[!i] in
        incr i;
        (match e with
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
            if !i + 4 > n then fail "bad \\u escape";
            let code = int_of_string ("0x" ^ String.sub s !i 4) in
            i := !i + 4;
            Buffer.add_char b (if code < 128 then Char.chr code else '?')
        | c -> Buffer.add_char b c);
        go ()
      end
      else begin
        Buffer.add_char b c;
        go ()
      end
    in
    go ()
  in
  let rec value () =
    skip ();
    if !i >= n then fail "unexpected end";
    match s.[!i] with
    | '{' ->
        incr i;
        skip ();
        if !i < n && s.[!i] = '}' then (incr i; Obj [])
        else
          let rec members acc =
            let k = string () in
            expect ':';
            let v = value () in
            skip ();
            if !i < n && s.[!i] = ',' then (incr i; members ((k, v) :: acc))
            else (expect '}'; Obj (List.rev ((k, v) :: acc)))
          in
          members []
    | '[' ->
        incr i;
        skip ();
        if !i < n && s.[!i] = ']' then (incr i; Arr [])
        else
          let rec elements acc =
            let v = value () in
            skip ();
            if !i < n && s.[!i] = ',' then (incr i; elements (v :: acc))
            else (expect ']'; Arr (List.rev (v :: acc)))
          in
          elements []
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
        let start = !i in
        while !i < n && String.contains "+-0123456789.eE" s.[!i] do
          incr i
        done;
        (match float_of_string_opt (String.sub s start (!i - start)) with
        | Some f when !i > start -> Num f
        | _ -> fail "bad value")
  in
  let v = value () in
  skip ();
  if !i <> n then fail "trailing data";
  v

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let to_list = function Arr l -> l | _ -> []

let to_string = function Str s -> Some s | _ -> None

let to_float = function Num f -> Some f | _ -> None

let read_file path = In_channel.with_open_bin path In_channel.input_all
