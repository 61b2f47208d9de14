(* [front] then the reverse of [back]: a push conses onto [back], and a
   pop or split that finds [front] empty reverses [back] once for all it
   holds. [find_opt] and [split_while] answer in queue order, [front]
   first; [find_opt] walks [back] where it stands and keeps its last
   match, the oldest. [map_shared] maps each list where it stands. *)
type 'a t = { front : 'a list; back : 'a list }

let empty = { front = []; back = [] }
let is_empty = function { front = []; back = [] } -> true | _ -> false
let push q x = { q with back = x :: q.back }

let pop q =
  match q.front with
  | x :: front -> Some (x, { q with front })
  | [] -> (
      match List.rev q.back with
      | [] -> None
      | x :: front -> Some (x, { front; back = [] }))

(* [l] with [f] applied to each element: the cells after the last
   element [f] changes are [l]'s own, and so is [l] when [f] changes
   none. *)
let rec map_list f = function
  | [] as l -> l
  | x :: rest as l ->
      let y = f x in
      let rest' = map_list f rest in
      if y == x && rest' == rest then l else y :: rest'

let map_shared f q =
  let front = map_list f q.front and back = map_list f q.back in
  if front == q.front && back == q.back then q else { front; back }

(* The suffix of [l] that starts at its last element satisfying [p],
   [found] if none does. *)
let rec last_match p found = function
  | [] -> found
  | x :: rest as l -> last_match p (if p x then l else found) rest

let find_opt p q =
  match List.find_opt p q.front with
  | Some _ as found -> found
  | None -> ( match last_match p [] q.back with x :: _ -> Some x | [] -> None)

let split_while p q =
  let rec go taken = function
    | x :: rest when p x -> go (x :: taken) rest
    | rest -> (taken, rest)
  in
  match (go [] q.front, q.back) with
  | (taken, []), (_ :: _ as back) ->
      let taken, front = go taken (List.rev back) in
      (List.rev taken, { front; back = [] })
  | (taken, front), _ -> (List.rev taken, { q with front })
