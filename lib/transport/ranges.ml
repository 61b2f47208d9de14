(* Sorted, disjoint, non-adjacent half-open intervals. *)
type t = (int * int) list

let empty = []
let is_empty t = t = []

(* [add]'s one walk over the sorted intervals: those ending before [lo]
   are kept (collected reversed in [below]); those touching [lo, hi]
   widen the merged interval and add the bytes of [lo, hi) they already
   hold to [covered]; the first one starting past [hi] ends the walk. *)
let rec merge lo hi below mlo mhi covered = function
  | (_, b) as iv :: rest when b < lo -> merge lo hi (iv :: below) mlo mhi covered rest
  | (a, b) :: rest when a <= hi ->
      merge lo hi below (Int.min mlo a) (Int.max mhi b)
        (covered + (Int.min b hi - Int.max a lo)) rest
  | above -> (List.rev_append below ((mlo, mhi) :: above), covered < hi - lo)

let add t lo hi = if lo >= hi then (t, false) else merge lo hi [] lo hi 0 t

let cumulative = function (0, b) :: _ -> b | _ -> 0

let covers t lo hi =
  lo >= hi || List.exists (fun (a, b) -> a <= lo && hi <= b) t

let intervals t = t

let total_bytes t = List.fold_left (fun acc (a, b) -> acc + (b - a)) 0 t
