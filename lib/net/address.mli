(** Site addresses.

    A thin abstraction over small integers: site 0 is conventionally the
    base (maker) site, higher numbers are retailers, but nothing in the
    network layer depends on that convention. *)

type t

val of_int : int -> t
(** Raises [Invalid_argument] on negative ids. *)

val to_int : t -> int
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val cover : 'a option array -> t -> 'a option array
(** For tables indexed by address: [cover slots a] is [slots] when it has a
    slot for [a], else a copy at least twice as long that does, its new
    slots [None]. *)

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
