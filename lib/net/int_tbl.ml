(* [hash] is [Hashtbl.hash], so keys land in the same buckets as in the
   polymorphic [Hashtbl]; only the key comparison changes. *)
include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)
