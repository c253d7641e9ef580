(** A local database: named tables, write-ahead logging, transactions.

    Transactional mutations log to the WAL before touching tables
    (write-ahead rule) and keep an in-memory undo list, so [abort] rolls
    the tables back and [recover] rebuilds exactly the committed state from
    the log — including after the log loses its tail in a simulated crash. *)

type t

type txn

val create : ?name:string -> unit -> t
val name : t -> string
val wal : t -> Wal.t

val create_table : t -> name:string -> Schema.t -> Table.t
(** Logged, so recovery recreates it. Raises [Invalid_argument] if the
    table exists. *)

val table : t -> string -> Table.t
(** Raises [Not_found]. *)

val table_opt : t -> string -> Table.t option
val tables : t -> (string * Table.t) list
(** Sorted by name. *)

(** {2 Transactions}

    A [txn] must be finished with exactly one of [commit] or [abort];
    operations on a finished transaction raise [Invalid_argument]. *)

val begin_txn : t -> txn
val txn_id : txn -> int

val insert : txn -> table:string -> key:string -> Value.t array -> (unit, string) result
val set_col : txn -> table:string -> key:string -> col:string -> Value.t -> (unit, string) result

val add_int : txn -> table:string -> key:string -> col:string -> int -> (int, string) result
(** Returns the new column value. *)

val apply_int : t -> table:string -> key:string -> col:string -> int -> (int, string) result
(** Autocommit [add_int]: a complete single-operation transaction (the WAL
    records the usual Begin/Update/Commit triple) from one row lookup, with
    none of the per-[txn] bookkeeping. The write path of Delay Update. *)

val delete : txn -> table:string -> key:string -> (unit, string) result

val get : t -> table:string -> key:string -> Value.t array option
(** Reads see the latest (possibly uncommitted) state — concurrency control
    is the caller's job (see {!Lock_manager}). *)

val get_col : t -> table:string -> key:string -> col:string -> (Value.t, string) result

val mem : t -> table:string -> key:string -> bool
(** Key existence without materialising the row (no defensive copy). *)

val commit : txn -> unit
val abort : txn -> unit
(** Rolls back this transaction's effects in reverse order. *)

val active_txns : t -> int

(** {2 Recovery} *)

val recover : ?name:string -> Wal.t -> t
(** Rebuilds a database from a log: replays [Create_table] records and the
    operations of committed transactions, in log order. The rebuilt
    database's own WAL is a copy of the input log. *)
