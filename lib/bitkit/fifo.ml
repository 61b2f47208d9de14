(* [front] then the reverse of [back]: a push conses onto [back], and a
   pop or split that finds [front] empty reverses [back] once for all it
   holds. [find_opt] and [split_while] visit [front] and then [back]
   reversed, so they see the elements in queue order; [map] maps each
   list where it stands. *)
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

let map f q = { front = List.map f q.front; back = List.map f q.back }

let find_opt p q =
  match List.find_opt p q.front with
  | Some _ as found -> found
  | None -> List.find_opt p (List.rev q.back)

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
