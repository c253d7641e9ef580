open Avdb_store

let stock_schema () =
  Schema.create
    [ { Schema.name = "amount"; ty = Value.Tint }; { Schema.name = "regular"; ty = Value.Tbool } ]

let row amount regular = [| Value.Int amount; Value.Bool regular |]

let make () =
  let db = Database.create ~name:"test" () in
  ignore (Database.create_table db ~name:"stock" (stock_schema ()));
  db

let amount db key =
  match Database.get_col db ~table:"stock" ~key ~col:"amount" with
  | Ok (Value.Int n) -> n
  | Ok _ -> Alcotest.fail "not an int"
  | Error e -> Alcotest.fail e

let test_create_table () =
  let db = make () in
  Alcotest.(check (list string)) "tables" [ "stock" ] (List.map fst (Database.tables db));
  (match Database.create_table db ~name:"stock" (stock_schema ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate table accepted");
  Alcotest.(check bool) "table_opt hit" true (Option.is_some (Database.table_opt db "stock"));
  Alcotest.(check bool) "table_opt miss" true (Option.is_none (Database.table_opt db "zzz"))

let test_commit_applies () =
  let db = make () in
  let txn = Database.begin_txn db in
  Alcotest.(check bool) "insert" true
    (Result.is_ok (Database.insert txn ~table:"stock" ~key:"p" (row 100 true)));
  (match Database.add_int txn ~table:"stock" ~key:"p" ~col:"amount" (-30) with
  | Ok 70 -> ()
  | _ -> Alcotest.fail "expected 70");
  Database.commit txn;
  Alcotest.(check int) "committed value" 70 (amount db "p");
  Alcotest.(check int) "no active txns" 0 (Database.active_txns db)

let test_abort_rolls_back () =
  let db = make () in
  let setup = Database.begin_txn db in
  ignore (Database.insert setup ~table:"stock" ~key:"p" (row 100 true));
  ignore (Database.insert setup ~table:"stock" ~key:"q" (row 50 false));
  Database.commit setup;
  let txn = Database.begin_txn db in
  ignore (Database.add_int txn ~table:"stock" ~key:"p" ~col:"amount" (-10));
  ignore (Database.set_col txn ~table:"stock" ~key:"p" ~col:"regular" (Value.Bool false));
  ignore (Database.delete txn ~table:"stock" ~key:"q");
  ignore (Database.insert txn ~table:"stock" ~key:"r" (row 7 true));
  Database.abort txn;
  Alcotest.(check int) "amount restored" 100 (amount db "p");
  (match Database.get_col db ~table:"stock" ~key:"p" ~col:"regular" with
  | Ok (Value.Bool true) -> ()
  | _ -> Alcotest.fail "regular flag not restored");
  Alcotest.(check int) "deleted row restored" 50 (amount db "q");
  Alcotest.(check bool) "inserted row removed" true
    (Option.is_none (Database.get db ~table:"stock" ~key:"r"))

let test_abort_reverse_order () =
  (* Two updates to the same column in one txn: abort must restore the
     original, not the intermediate. *)
  let db = make () in
  let setup = Database.begin_txn db in
  ignore (Database.insert setup ~table:"stock" ~key:"p" (row 1 true));
  Database.commit setup;
  let txn = Database.begin_txn db in
  ignore (Database.set_col txn ~table:"stock" ~key:"p" ~col:"amount" (Value.Int 2));
  ignore (Database.set_col txn ~table:"stock" ~key:"p" ~col:"amount" (Value.Int 3));
  Database.abort txn;
  Alcotest.(check int) "original restored" 1 (amount db "p")

let test_finished_txn_rejected () =
  let db = make () in
  let txn = Database.begin_txn db in
  Database.commit txn;
  (match Database.insert txn ~table:"stock" ~key:"p" (row 1 true) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "op on finished txn accepted");
  match Database.commit txn with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "double commit accepted"

let test_errors_do_not_poison_txn () =
  let db = make () in
  let txn = Database.begin_txn db in
  Alcotest.(check bool) "missing table" true
    (Result.is_error (Database.insert txn ~table:"zzz" ~key:"p" (row 1 true)));
  Alcotest.(check bool) "missing key" true
    (Result.is_error (Database.add_int txn ~table:"stock" ~key:"nope" ~col:"amount" 1));
  ignore (Database.insert txn ~table:"stock" ~key:"p" (row 5 true));
  Database.commit txn;
  Alcotest.(check int) "good op survived" 5 (amount db "p")

let test_recover_committed_only () =
  let db = make () in
  let t1 = Database.begin_txn db in
  ignore (Database.insert t1 ~table:"stock" ~key:"committed" (row 10 true));
  Database.commit t1;
  let t2 = Database.begin_txn db in
  ignore (Database.insert t2 ~table:"stock" ~key:"aborted" (row 20 true));
  Database.abort t2;
  let t3 = Database.begin_txn db in
  ignore (Database.insert t3 ~table:"stock" ~key:"inflight" (row 30 true));
  (* t3 never finishes: crash now. *)
  let recovered = Database.recover (Database.wal db) in
  Alcotest.(check bool) "committed row present" true
    (Option.is_some (Database.get recovered ~table:"stock" ~key:"committed"));
  Alcotest.(check bool) "aborted row absent" true
    (Option.is_none (Database.get recovered ~table:"stock" ~key:"aborted"));
  Alcotest.(check bool) "in-flight row absent" true
    (Option.is_none (Database.get recovered ~table:"stock" ~key:"inflight"))

let test_recover_equals_state () =
  let db = make () in
  let txn = Database.begin_txn db in
  ignore (Database.insert txn ~table:"stock" ~key:"p" (row 100 true));
  ignore (Database.add_int txn ~table:"stock" ~key:"p" ~col:"amount" (-25));
  ignore (Database.insert txn ~table:"stock" ~key:"q" (row 1 false));
  ignore (Database.delete txn ~table:"stock" ~key:"q");
  Database.commit txn;
  let recovered = Database.recover (Database.wal db) in
  Alcotest.(check bool) "tables equal" true
    (Table.equal_contents (Database.table db "stock") (Database.table recovered "stock"))

let test_recover_through_serialisation () =
  (* Crash simulation: serialise the log, reload it, recover. *)
  let db = make () in
  let txn = Database.begin_txn db in
  ignore (Database.insert txn ~table:"stock" ~key:"p" (row 42 true));
  Database.commit txn;
  match Wal.of_string (Wal.to_string (Database.wal db)) with
  | Error e -> Alcotest.fail (Corruption.to_string e)
  | Ok wal ->
      let recovered = Database.recover wal in
      Alcotest.(check int) "value survives serialisation" 42 (amount recovered "p")

let test_recover_truncated_tail () =
  (* Losing the tail of the log after the last commit must not lose
     committed data. *)
  let db = make () in
  let t1 = Database.begin_txn db in
  ignore (Database.insert t1 ~table:"stock" ~key:"p" (row 10 true));
  Database.commit t1;
  let mark = Wal.length (Database.wal db) in
  let t2 = Database.begin_txn db in
  ignore (Database.add_int t2 ~table:"stock" ~key:"p" ~col:"amount" 5);
  Database.commit t2;
  let wal = Database.wal db in
  Wal.truncate wal mark;
  let recovered = Database.recover wal in
  Alcotest.(check int) "pre-truncation state" 10 (amount recovered "p")

let test_recover_double_crash () =
  let db = make () in
  let t1 = Database.begin_txn db in
  ignore (Database.insert t1 ~table:"stock" ~key:"p" (row 10 true));
  Database.commit t1;
  let r1 = Database.recover (Database.wal db) in
  (* Work on the recovered db, then crash again. *)
  let t2 = Database.begin_txn r1 in
  ignore (Database.add_int t2 ~table:"stock" ~key:"p" ~col:"amount" 7);
  Database.commit t2;
  let r2 = Database.recover (Database.wal r1) in
  Alcotest.(check int) "both generations survive" 17 (amount r2 "p")

let test_wal_mid_record_truncation () =
  (* Truncation mid-record (not just mid-line): the serialised bytes are
     cut inside an encoded record, leaving a shorter, undecodable final
     line. Wal.of_string must recover everything before it. *)
  let wal = Wal.create () in
  ignore (Wal.append wal (Wal.Begin 1));
  ignore
    (Wal.append wal
       (Wal.Insert { txid = 1; table = "stock"; key = "p"; row = [| Value.Int 42 |] }));
  ignore (Wal.append wal (Wal.Commit 1));
  let s = Wal.to_string wal in
  (* Cut inside the final record's bytes. *)
  let torn = String.sub s 0 (String.length s - 2) in
  (match Wal.of_string torn with
  | Error e -> Alcotest.fail ("mid-record truncation should recover: " ^ Corruption.to_string e)
  | Ok recovered ->
      Alcotest.(check int) "final record dropped" 2 (Wal.length recovered);
      Alcotest.(check bool) "prefix intact" true
        (Wal.equal_record (Wal.nth recovered 0) (Wal.Begin 1)));
  (* The same torn bytes followed by a valid record are mid-log
     corruption, not a torn tail, and must fail. *)
  let lines = String.split_on_char '\n' torn in
  let torn_line = List.nth lines (List.length lines - 1) in
  let cut_mid = String.concat "\n" [ List.hd lines; torn_line; "C|1" ] in
  match Wal.of_string cut_mid with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mid-log corruption accepted"

let fresh = make

let qcheck_tests =
  (* Random committed/aborted transaction mix: recovery must equal the live
     state exactly. The script shape (key, delta, commit?) is shared. *)
  let script = Gen.txn_script () in
  let open QCheck in
  [
    Test.make ~name:"recover = live state under random txns" ~count:200 script
      (fun txns ->
        let db = fresh () in
        List.iter
          (fun (k, delta, do_commit) ->
            let key = "k" ^ string_of_int k in
            let txn = Database.begin_txn db in
            (if Option.is_none (Database.get db ~table:"stock" ~key) then
               ignore (Database.insert txn ~table:"stock" ~key (row 100 true)));
            ignore (Database.add_int txn ~table:"stock" ~key ~col:"amount" delta);
            if do_commit then Database.commit txn else Database.abort txn)
          txns;
        let recovered = Database.recover (Database.wal db) in
        Table.equal_contents (Database.table db "stock") (Database.table recovered "stock"));
  ]

let suites =
  [
    ( "store.database",
      [
        Alcotest.test_case "create table" `Quick test_create_table;
        Alcotest.test_case "commit applies" `Quick test_commit_applies;
        Alcotest.test_case "abort rolls back" `Quick test_abort_rolls_back;
        Alcotest.test_case "abort reverse order" `Quick test_abort_reverse_order;
        Alcotest.test_case "finished txn rejected" `Quick test_finished_txn_rejected;
        Alcotest.test_case "errors do not poison txn" `Quick test_errors_do_not_poison_txn;
        Alcotest.test_case "recover committed only" `Quick test_recover_committed_only;
        Alcotest.test_case "recover equals state" `Quick test_recover_equals_state;
        Alcotest.test_case "recover through serialisation" `Quick test_recover_through_serialisation;
        Alcotest.test_case "recover truncated tail" `Quick test_recover_truncated_tail;
        Alcotest.test_case "recover double crash" `Quick test_recover_double_crash;
        Alcotest.test_case "wal mid-record truncation" `Quick test_wal_mid_record_truncation;
      ]
      @ List.map Gen.to_alcotest qcheck_tests );
  ]
