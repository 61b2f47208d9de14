type node = {
  mutable hop : int option;
  mutable zero : node option;
  mutable one : node option;
}

type t = {
  root : node;
  mutable count : int;
  inserts : Sublayer.Stats.counter;
  removes : Sublayer.Stats.counter;
  lookups : Sublayer.Stats.counter;
  misses : Sublayer.Stats.counter;
}

let fresh () = { hop = None; zero = None; one = None }

let create ?stats () =
  let sc =
    match stats with Some sc -> sc | None -> Sublayer.Stats.unregistered "fib"
  in
  { root = fresh (); count = 0;
    inserts = Sublayer.Stats.counter sc "inserts";
    removes = Sublayer.Stats.counter sc "removes";
    lookups = Sublayer.Stats.counter sc "lookups";
    misses = Sublayer.Stats.counter sc "misses" }

let bit addr i = (addr lsr (31 - i)) land 1

let insert t prefix hop =
  Sublayer.Stats.incr t.inserts;
  let rec go node depth =
    if depth = prefix.Addr.len then begin
      if node.hop = None then t.count <- t.count + 1;
      node.hop <- Some hop
    end
    else begin
      let child =
        if bit prefix.Addr.net depth = 0 then (
          match node.zero with
          | Some c -> c
          | None ->
              let c = fresh () in
              node.zero <- Some c;
              c)
        else
          match node.one with
          | Some c -> c
          | None ->
              let c = fresh () in
              node.one <- Some c;
              c
      in
      go child (depth + 1)
    end
  in
  go t.root 0

let remove t prefix =
  Sublayer.Stats.incr t.removes;
  (* Leaves empty interior nodes in place; fine for simulation scale. *)
  let rec go node depth =
    match node with
    | None -> ()
    | Some node ->
        if depth = prefix.Addr.len then begin
          if node.hop <> None then t.count <- t.count - 1;
          node.hop <- None
        end
        else if bit prefix.Addr.net depth = 0 then go node.zero (depth + 1)
        else go node.one (depth + 1)
  in
  go (Some t.root) 0

let find t addr =
  let rec go node depth best =
    match node with
    | None -> best
    | Some node ->
        let best = match node.hop with Some _ as h -> h | None -> best in
        if depth = 32 then best
        else if bit addr depth = 0 then go node.zero (depth + 1) best
        else go node.one (depth + 1) best
  in
  go (Some t.root) 0 None

let lookup t addr =
  Sublayer.Stats.incr t.lookups;
  let hit = find t addr in
  if hit = None then Sublayer.Stats.incr t.misses;
  hit

let size t = t.count

let entries t =
  let acc = ref [] in
  let rec go node net depth =
    (match node.hop with
    | Some hop -> acc := ({ Addr.net; len = depth }, hop) :: !acc
    | None -> ());
    (match node.zero with Some c -> go c net (depth + 1) | None -> ());
    match node.one with
    | Some c -> go c (net lor (1 lsl (31 - depth))) (depth + 1)
    | None -> ()
  in
  go t.root 0 0;
  List.sort
    (fun (a, _) (b, _) ->
      match Int.compare a.Addr.net b.Addr.net with
      | 0 -> Int.compare a.Addr.len b.Addr.len
      | c -> c)
    !acc
