type t = int

let of_int i =
  if i < 0 then invalid_arg "Address.of_int: negative";
  i

let to_int t = t
let equal = Int.equal
let compare = Int.compare
let hash t = t
let pp ppf t = Format.fprintf ppf "site%d" t
let to_string t = Format.asprintf "%a" pp t

let cover slots t =
  let len = Array.length slots in
  if t < len then slots
  else begin
    let grown = Array.make (Stdlib.max (t + 1) (2 * len)) None in
    Array.blit slots 0 grown 0 len;
    grown
  end

module Set = Set.Make (Int)
module Map = Map.Make (Int)
