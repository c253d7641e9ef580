type register = { amount : int }

let init amount = { amount }
let apply r ~delta = if r.amount + delta < 0 then None else Some { amount = r.amount + delta }
let read r = r.amount

let replay ~initial deltas =
  let rec go i r = function
    | [] -> Ok r.amount
    | d :: rest -> (
        match apply r ~delta:d with
        | Some r' -> go (i + 1) r' rest
        | None -> Error (i, r.amount))
  in
  go 0 (init initial) deltas

type books = { defined : int; minted : int; consumed : int; live : int }

let deficit b = b.defined + b.minted - b.consumed - b.live

let balance b ~leaked =
  let d = deficit b in
  if d < 0 then
    Error
      (Printf.sprintf
         "AV volume created out of thin air: defined %d + minted %d - consumed %d - live %d \
          = %d"
         b.defined b.minted b.consumed b.live d)
  else if leaked < 0 then
    Error (Printf.sprintf "more AV received than granted (%d units conjured in flight)" (-leaked))
  else if d <> leaked then
    Error
      (Printf.sprintf "AV ledger imbalance: books are short %d units but measured grant leak \
                       is %d"
         d leaked)
  else Ok ()

(* Reachable sets are sorted, duplicate-free int arrays. *)

let default_cap = 200_000

let mem set v =
  let rec go lo hi =
    lo < hi
    &&
    let mid = (lo + hi) lsr 1 in
    let x = Array.unsafe_get set mid in
    x = v || if x < v then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length set)

exception Over_cap

(* [(a + da) ∪ (b + db)], raising [Over_cap] as soon as it passes [cap]. *)
let union ~cap a da b db =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make (min (na + nb) (cap + 1)) 0 in
  let n = ref 0 and i = ref 0 and j = ref 0 in
  let push x =
    if !n >= cap then raise Over_cap;
    Array.unsafe_set out !n x;
    incr n
  in
  while !i < na && !j < nb do
    let x = Array.unsafe_get a !i + da and y = Array.unsafe_get b !j + db in
    if x <= y then begin
      push x;
      incr i;
      if x = y then incr j
    end
    else begin
      push y;
      incr j
    end
  done;
  while !i < na do
    push (Array.unsafe_get a !i + da);
    incr i
  done;
  while !j < nb do
    push (Array.unsafe_get b !j + db);
    incr j
  done;
  if !n = Array.length out then out else Array.sub out 0 !n

(* One step: [{x + c | x ∈ set, c ∈ choices}]. The shifted copies are
   merged pairwise; every partial union is a subset of the whole, so
   passing [cap] part-way already decides the step. *)
let step ~cap set choices =
  let choices = Array.of_list (List.sort_uniq compare choices) in
  let rec merge lo hi =
    if hi - lo = 1 then
      if Array.length set > cap then raise Over_cap
      else Array.map (fun x -> x + choices.(lo)) set
    else
      let mid = (lo + hi) / 2 in
      union ~cap (merge lo mid) 0 (merge mid hi) 0
  in
  if choices = [||] then Some [||]
  else match merge 0 (Array.length choices) with s -> Some s | exception Over_cap -> None

let add_delta ?(cap = default_cap) set d =
  if d = 0 then if Array.length set > cap then None else Some set
  else match union ~cap set 0 set d with s -> Some s | exception Over_cap -> None

let sum_set ?(cap = default_cap) lists =
  let rec go acc = function
    | [] -> Some acc
    | choices :: rest -> (
        match step ~cap acc choices with Some next -> go next rest | None -> None)
  in
  go [| 0 |] lists

let subset_sums ?cap deltas =
  List.fold_left (fun acc d -> Option.bind acc (fun s -> add_delta ?cap s d)) (Some [| 0 |]) deltas
