type t = int

let of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> (
      match (int_of_string a, int_of_string b, int_of_string c, int_of_string d) with
      | a, b, c, d
        when a >= 0 && a < 256 && b >= 0 && b < 256 && c >= 0 && c < 256 && d >= 0
             && d < 256 ->
          (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d
      | _ -> invalid_arg "Addr.of_string: octet out of range"
      | exception Failure _ -> invalid_arg "Addr.of_string: not an integer")
  | _ -> invalid_arg "Addr.of_string: expected a.b.c.d"

let to_string a =
  Printf.sprintf "%d.%d.%d.%d" ((a lsr 24) land 0xFF) ((a lsr 16) land 0xFF)
    ((a lsr 8) land 0xFF) (a land 0xFF)

let pp fmt a = Format.pp_print_string fmt (to_string a)
let equal = Int.equal

let node i = (10 lsl 24) lor (i land 0xFFFF)

type prefix = { net : t; len : int }

let mask len = if len = 0 then 0 else 0xFFFFFFFF lsl (32 - len) land 0xFFFFFFFF

let prefix a len =
  if len < 0 || len > 32 then invalid_arg "Addr.prefix: bad length";
  { net = a land mask len; len }

let prefix_of_string s =
  match String.index_opt s '/' with
  | None -> invalid_arg "Addr.prefix_of_string: missing /len"
  | Some i ->
      let a = of_string (String.sub s 0 i) in
      let len = int_of_string (String.sub s (i + 1) (String.length s - i - 1)) in
      prefix a len

let host a = { net = a; len = 32 }

let matches p a = a land mask p.len = p.net

let pp_prefix fmt p = Format.fprintf fmt "%s/%d" (to_string p.net) p.len
