type undo =
  | Undo_insert of { table : string; key : string }
  | Undo_update of { table : string; key : string; col : string; before : Value.t }
  | Undo_delete of { table : string; key : string; row : Value.t array }

type t = {
  name : string;
  wal : Wal.t;
  tables : (string, Table.t) Hashtbl.t;
  mutable next_txid : int;
  mutable active : int;
}

type txn = { db : t; id : int; mutable undos : undo list; mutable finished : bool }

let create ?(name = "db") () =
  { name; wal = Wal.create (); tables = Hashtbl.create 8; next_txid = 0; active = 0 }

let name t = t.name
let wal t = t.wal

let create_table t ~name schema =
  if Hashtbl.mem t.tables name then
    invalid_arg ("Database.create_table: table exists: " ^ name);
  let table = Table.create ~name schema in
  Hashtbl.add t.tables name table;
  ignore (Wal.append t.wal (Wal.Create_table { table = name; columns = Schema.columns schema }));
  table

let table t name = Hashtbl.find t.tables name
let table_opt t name = Hashtbl.find_opt t.tables name

let tables t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.tables []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let begin_txn t =
  let id = t.next_txid in
  t.next_txid <- t.next_txid + 1;
  t.active <- t.active + 1;
  ignore (Wal.append t.wal (Wal.Begin id));
  { db = t; id; undos = []; finished = false }

let txn_id txn = txn.id

let check_live txn =
  if txn.finished then invalid_arg "Database: transaction already finished"

let find_table txn name =
  match table_opt txn.db name with
  | Some tbl -> Ok tbl
  | None -> Error (Printf.sprintf "no such table %S" name)

let ( let* ) = Result.bind

let insert txn ~table ~key row =
  check_live txn;
  let* tbl = find_table txn table in
  (* Log first (write-ahead), then apply. Validation happens in the table;
     on failure the log record is harmless because the txn would only ever
     replay if committed, and a failed op never commits that record's
     effect — but keep the log clean by validating before logging. *)
  match Schema.validate_row (Table.schema tbl) row with
  | Error e -> Error e
  | Ok () ->
      if Table.mem tbl ~key then Error (Printf.sprintf "duplicate key %S" key)
      else begin
        ignore (Wal.append txn.db.wal (Wal.Insert { txid = txn.id; table; key; row }));
        (match Table.insert tbl ~key row with
        | Ok () -> ()
        | Error e -> failwith ("Database.insert: validated insert failed: " ^ e));
        txn.undos <- Undo_insert { table; key } :: txn.undos;
        Ok ()
      end

let set_col txn ~table ~key ~col value =
  check_live txn;
  let* tbl = find_table txn table in
  let* before = Table.get_col tbl ~key ~col in
  ignore
    (Wal.append txn.db.wal (Wal.Update { txid = txn.id; table; key; col; before; after = value }));
  let* _old = Table.set_col tbl ~key ~col value in
  txn.undos <- Undo_update { table; key; col; before } :: txn.undos;
  Ok ()

let add_int txn ~table ~key ~col delta =
  check_live txn;
  let* tbl = find_table txn table in
  let* before = Table.get_col tbl ~key ~col in
  match Value.add_int before delta with
  | exception Invalid_argument e -> Error e
  | after ->
      ignore
        (Wal.append txn.db.wal (Wal.Update { txid = txn.id; table; key; col; before; after }));
      let* _old = Table.set_col tbl ~key ~col after in
      txn.undos <- Undo_update { table; key; col; before } :: txn.undos;
      Ok (match after with Value.Int n -> n | v -> int_of_float (Value.as_float v))

let delete txn ~table ~key =
  check_live txn;
  let* tbl = find_table txn table in
  match Table.get tbl ~key with
  | None -> Error (Printf.sprintf "no such key %S" key)
  | Some row ->
      ignore (Wal.append txn.db.wal (Wal.Delete { txid = txn.id; table; key; row }));
      ignore (Table.delete tbl ~key);
      txn.undos <- Undo_delete { table; key; row } :: txn.undos;
      Ok ()

(* Autocommit fast path for the single hottest mutation: one row lookup
   (Table.add_int_swap) instead of the get_col/set_col pair, no undo list,
   no txn record, and a single [Wal.Apply] record instead of the
   Begin/Update/Commit triple — committed by definition, and atomic under
   torn-tail recovery because one record is one log line. The record lands
   after the in-place add rather than before; within this function nothing
   can observe the gap (simulated crashes truncate the log between
   operations, never inside one). *)
let apply_int t ~table ~key ~col delta =
  match Hashtbl.find t.tables table with
  | exception Not_found -> Error (Printf.sprintf "no such table %S" table)
  | tbl -> (
      match Table.add_int_swap tbl ~key ~col delta with
      | Error e -> Error e
      | Ok (before, after) ->
          let txid = t.next_txid in
          t.next_txid <- txid + 1;
          ignore (Wal.append t.wal (Wal.Apply { txid; table; key; col; before; after }));
          Ok (match after with Value.Int n -> n | v -> int_of_float (Value.as_float v)))

let get t ~table ~key =
  match table_opt t table with None -> None | Some tbl -> Table.get tbl ~key

let mem t ~table ~key =
  match Hashtbl.find t.tables table with
  | exception Not_found -> false
  | tbl -> Table.mem tbl ~key

let get_col t ~table ~key ~col =
  match table_opt t table with
  | None -> Error (Printf.sprintf "no such table %S" table)
  | Some tbl -> Table.get_col tbl ~key ~col

let finish txn =
  txn.finished <- true;
  txn.db.active <- txn.db.active - 1

let commit txn =
  check_live txn;
  ignore (Wal.append txn.db.wal (Wal.Commit txn.id));
  finish txn

let abort txn =
  check_live txn;
  (* undos is newest-first, which is exactly reverse application order. *)
  List.iter
    (fun undo ->
      let tbl = table txn.db (match undo with
        | Undo_insert { table; _ } | Undo_update { table; _ } | Undo_delete { table; _ } -> table)
      in
      match undo with
      | Undo_insert { key; _ } -> ignore (Table.delete tbl ~key)
      | Undo_update { key; col; before; _ } -> (
          match Table.set_col tbl ~key ~col before with
          | Ok _ -> ()
          | Error e -> failwith ("Database.abort: undo failed: " ^ e))
      | Undo_delete { key; row; _ } -> (
          match Table.insert tbl ~key row with
          | Ok () -> ()
          | Error e -> failwith ("Database.abort: undo failed: " ^ e)))
    txn.undos;
  ignore (Wal.append txn.db.wal (Wal.Abort txn.id));
  finish txn

let active_txns t = t.active

let recover ?name wal =
  let db = create ?name () in
  let committed = Wal.committed_txids wal in
  let apply = function
    | Wal.Create_table { table = tname; columns } ->
        (* Not via [create_table]: replay must not re-log records, the whole
           input log is copied into the new WAL below. *)
        Hashtbl.add db.tables tname (Table.create ~name:tname (Schema.create columns))
    | Wal.Begin _ | Wal.Commit _ | Wal.Abort _ -> ()
    | Wal.Insert { txid; table = tname; key; row } ->
        if Hashtbl.mem committed txid then begin
          match Table.insert (table db tname) ~key row with
          | Ok () -> ()
          | Error e -> failwith ("Database.recover: replay insert: " ^ e)
        end
    | Wal.Update { txid; table = tname; key; col; after; _ } ->
        if Hashtbl.mem committed txid then begin
          match Table.set_col (table db tname) ~key ~col after with
          | Ok _ -> ()
          | Error e -> failwith ("Database.recover: replay update: " ^ e)
        end
    | Wal.Delete { txid; table = tname; key; _ } ->
        if Hashtbl.mem committed txid then ignore (Table.delete (table db tname) ~key)
    | Wal.Apply { table = tname; key; col; after; _ } -> (
        (* Committed by definition — no txid check. *)
        match Table.set_col (table db tname) ~key ~col after with
        | Ok _ -> ()
        | Error e -> failwith ("Database.recover: replay apply: " ^ e))
  in
  List.iter apply (Wal.records wal);
  (* The recovered instance logs onto a fresh WAL seeded with the replayed
     history, so a second crash recovers to at least this state. *)
  List.iter
    (fun r ->
      (match r with
      | Wal.Begin txid | Wal.Apply { txid; _ } ->
          db.next_txid <- Stdlib.max db.next_txid (txid + 1)
      | _ -> ());
      ignore (Wal.append db.wal r))
    (Wal.records wal);
  db
