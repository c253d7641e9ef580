(** Write-ahead log.

    Every transactional mutation appends a record {e before} the in-memory
    table is touched; [Commit]/[Abort] markers close a transaction.
    Recovery ({!Database.recover}) replays records of committed
    transactions only. Records encode to single text lines, so a log can be
    serialised, truncated to simulate a crash, and replayed. *)

type record =
  | Create_table of { table : string; columns : Schema.column list }
  | Begin of int  (** transaction id *)
  | Insert of { txid : int; table : string; key : string; row : Value.t array }
  | Update of { txid : int; table : string; key : string; col : string; before : Value.t; after : Value.t }
  | Delete of { txid : int; table : string; key : string; row : Value.t array }
  | Commit of int
  | Abort of int
  | Apply of { txid : int; table : string; key : string; col : string; before : Value.t; after : Value.t }
      (** A complete single-operation committed transaction in one record —
          the autocommit write path ({!Database.apply_int}) logs this
          instead of a Begin/Update/Commit triple. Atomic by construction:
          a torn tail either keeps the whole update or none of it. *)

type t

val create : unit -> t

val append : t -> record -> int
(** Returns the record's log sequence number (0-based). *)

val length : t -> int
val records : t -> record list
(** In append order. *)

val nth : t -> int -> record

val truncate : t -> int -> unit
(** [truncate t n] keeps the first [n] records — simulates losing the log
    tail in a crash. *)

val committed_txids : t -> (int, unit) Hashtbl.t

val encode_record : record -> string

val encode_record_into : Buffer.t -> record -> unit
(** Appends exactly what {!encode_record} returns. *)

val decode_record : string -> (record, string) result

val to_string : t -> string
(** One record per line. Incremental: the log caches the encoding of its
    stable prefix, so calling this after every few appends costs the new
    suffix (plus a copy), not a full re-encode. [truncate] drops the
    cache. *)

val of_string : string -> (t, Corruption.t) result
(** Parses a serialised log. An undecodable {e final} line is treated as a
    tail torn by a crash mid-append and dropped — the decoded prefix is
    recovered. An undecodable line anywhere before the end is corruption
    and fails the whole parse with the offending byte offset. *)

val equal_record : record -> record -> bool
val pp_record : Format.formatter -> record -> unit
