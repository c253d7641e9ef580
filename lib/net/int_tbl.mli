(** Hash table on [int] keys, for the per-message lookups of the network
    and RPC layers: keys are compared with [Int.equal] rather than the
    polymorphic [compare], and hashed with [Hashtbl.hash]. *)

include Hashtbl.S with type key = int
