(** A single keyed table: primary key (string) to row, schema-checked. *)

type t

val create : name:string -> Schema.t -> t
val name : t -> string
val schema : t -> Schema.t

val insert : t -> key:string -> Value.t array -> (unit, string) result
(** Fails if the key exists or the row does not match the schema. *)

val get : t -> key:string -> Value.t array option
(** A defensive copy: mutating the result does not affect the table. *)

val get_col : t -> key:string -> col:string -> (Value.t, string) result

val set_col : t -> key:string -> col:string -> Value.t -> (Value.t, string) result
(** Returns the previous value. Fails on a missing key, unknown column or
    type mismatch. *)

val add_int : t -> key:string -> col:string -> int -> (int, string) result
(** Adds a delta to a numeric column; returns the new value as int
    (truncated for float columns). *)

val add_int_swap : t -> key:string -> col:string -> int -> (Value.t * Value.t, string) result
(** Like {!add_int} but returns [(before, after)] from a single row
    lookup — the write path's fast primitive (the WAL needs both sides). *)

val delete : t -> key:string -> Value.t array option
(** Returns the removed row, or [None] if the key was absent. *)

val mem : t -> key:string -> bool
val size : t -> int

(** {2 Traversal}

    All three visit rows in ascending [String.compare] key order, so
    anything built from a traversal (history order, join snapshots,
    per-base grouping) is independent of the hash layout. Each sorts the
    live keys first, O(n log n), so [iter]/[fold] visit exactly the rows
    live when they start even if the callback mutates the table. *)

val keys : t -> string list
val iter : t -> (string -> Value.t array -> unit) -> unit
val fold : t -> init:'a -> f:('a -> string -> Value.t array -> 'a) -> 'a

val equal_contents : t -> t -> bool
(** Same keys and equal rows, schemas compared by column names/types. *)
