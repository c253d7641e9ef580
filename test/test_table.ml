open Avdb_store

let stock_schema () =
  Schema.create
    [
      { Schema.name = "product"; ty = Value.Tstr };
      { Schema.name = "amount"; ty = Value.Tint };
      { Schema.name = "regular"; ty = Value.Tbool };
    ]

let row name amount regular = [| Value.Str name; Value.Int amount; Value.Bool regular |]

let make () = Table.create ~name:"stock" (stock_schema ())

(* --- Schema --- *)

let test_schema_basics () =
  let s = stock_schema () in
  Alcotest.(check int) "arity" 3 (Schema.arity s);
  Alcotest.(check int) "index" 1 (Schema.index s "amount");
  Alcotest.(check (option int)) "index_opt miss" None (Schema.index_opt s "nope");
  Alcotest.(check string) "column_ty" "int" (Value.ty_name (Schema.column_ty s "amount"))

let test_schema_rejects_duplicates () =
  match
    Schema.create [ { Schema.name = "a"; ty = Value.Tint }; { Schema.name = "a"; ty = Value.Tstr } ]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate columns accepted"

let test_schema_rejects_empty () =
  match Schema.create [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty schema accepted"

let test_validate_row () =
  let s = stock_schema () in
  Alcotest.(check bool) "valid" true (Result.is_ok (Schema.validate_row s (row "p" 1 true)));
  Alcotest.(check bool) "wrong arity" true
    (Result.is_error (Schema.validate_row s [| Value.Int 1 |]));
  Alcotest.(check bool) "wrong type" true
    (Result.is_error (Schema.validate_row s [| Value.Int 1; Value.Int 2; Value.Bool true |]))

(* --- Table --- *)

let test_insert_get () =
  let t = make () in
  Alcotest.(check bool) "insert ok" true (Result.is_ok (Table.insert t ~key:"p1" (row "p1" 100 true)));
  Alcotest.(check bool) "mem" true (Table.mem t ~key:"p1");
  (match Table.get t ~key:"p1" with
  | Some r -> Alcotest.(check int) "amount" 100 (Value.as_int r.(1))
  | None -> Alcotest.fail "row missing");
  Alcotest.(check bool) "duplicate rejected" true
    (Result.is_error (Table.insert t ~key:"p1" (row "p1" 1 true)));
  Alcotest.(check bool) "bad row rejected" true
    (Result.is_error (Table.insert t ~key:"p2" [| Value.Int 0 |]));
  Alcotest.(check int) "size" 1 (Table.size t)

let test_get_is_copy () =
  let t = make () in
  ignore (Table.insert t ~key:"p" (row "p" 10 true));
  (match Table.get t ~key:"p" with
  | Some r -> r.(1) <- Value.Int 9999
  | None -> Alcotest.fail "missing");
  match Table.get_col t ~key:"p" ~col:"amount" with
  | Ok (Value.Int 10) -> ()
  | _ -> Alcotest.fail "table row was aliased by get"

let test_insert_copies_input () =
  let t = make () in
  let r = row "p" 10 true in
  ignore (Table.insert t ~key:"p" r);
  r.(1) <- Value.Int 0;
  match Table.get_col t ~key:"p" ~col:"amount" with
  | Ok (Value.Int 10) -> ()
  | _ -> Alcotest.fail "table aliased caller's array"

let test_set_col () =
  let t = make () in
  ignore (Table.insert t ~key:"p" (row "p" 10 true));
  (match Table.set_col t ~key:"p" ~col:"amount" (Value.Int 20) with
  | Ok (Value.Int 10) -> ()
  | _ -> Alcotest.fail "expected old value 10");
  Alcotest.(check bool) "type mismatch" true
    (Result.is_error (Table.set_col t ~key:"p" ~col:"amount" (Value.Str "x")));
  Alcotest.(check bool) "missing key" true
    (Result.is_error (Table.set_col t ~key:"zzz" ~col:"amount" (Value.Int 1)));
  Alcotest.(check bool) "missing col" true
    (Result.is_error (Table.set_col t ~key:"p" ~col:"zzz" (Value.Int 1)))

let test_add_int () =
  let t = make () in
  ignore (Table.insert t ~key:"p" (row "p" 10 true));
  (match Table.add_int t ~key:"p" ~col:"amount" 5 with
  | Ok 15 -> ()
  | Ok n -> Alcotest.failf "expected 15, got %d" n
  | Error e -> Alcotest.fail e);
  (match Table.add_int t ~key:"p" ~col:"amount" (-20) with
  | Ok (-5) -> ()
  | _ -> Alcotest.fail "negative result allowed at storage level");
  Alcotest.(check bool) "non-numeric col" true
    (Result.is_error (Table.add_int t ~key:"p" ~col:"product" 1))

let test_delete () =
  let t = make () in
  ignore (Table.insert t ~key:"p" (row "p" 10 true));
  (match Table.delete t ~key:"p" with
  | Some r -> Alcotest.(check int) "deleted row" 10 (Value.as_int r.(1))
  | None -> Alcotest.fail "expected row");
  Alcotest.(check bool) "gone" false (Table.mem t ~key:"p");
  Alcotest.(check (option unit)) "double delete" None
    (Option.map (fun _ -> ()) (Table.delete t ~key:"p"))

let test_iteration () =
  let t = make () in
  List.iter
    (fun (k, amount) -> ignore (Table.insert t ~key:k (row k amount true)))
    [ ("b", 2); ("a", 1); ("c", 3) ];
  Alcotest.(check (list string)) "sorted keys" [ "a"; "b"; "c" ] (Table.keys t);
  let total = Table.fold t ~init:0 ~f:(fun acc _ r -> acc + Value.as_int r.(1)) in
  Alcotest.(check int) "fold" 6 total;
  let seen = ref [] in
  Table.iter t (fun k _ -> seen := k :: !seen);
  Alcotest.(check (list string)) "iter order" [ "a"; "b"; "c" ] (List.rev !seen);
  (* A callback that deletes rows still visits every row live at the start. *)
  let seen = ref [] in
  Table.iter t (fun k _ ->
      seen := k :: !seen;
      ignore (Table.delete t ~key:"c"));
  Alcotest.(check (list string)) "snapshot of keys" [ "a"; "b"; "c" ] (List.rev !seen);
  Alcotest.(check int) "deleted meanwhile" 2 (Table.size t)

let test_equal_contents () =
  let a = make () and b = make () in
  ignore (Table.insert a ~key:"p" (row "p" 10 true));
  ignore (Table.insert b ~key:"p" (row "p" 10 true));
  Alcotest.(check bool) "equal" true (Table.equal_contents a b);
  ignore (Table.add_int b ~key:"p" ~col:"amount" 1);
  Alcotest.(check bool) "differ" false (Table.equal_contents a b)

let fresh = make

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"random ops keep size = live keys" ~count:200
      (list_of_size Gen.(int_range 0 200) (pair (int_bound 20) small_signed_int))
      (fun ops ->
        let t = fresh () in
        let model = Hashtbl.create 16 in
        List.iter
          (fun (k, d) ->
            let key = "k" ^ string_of_int k in
            if d >= 0 then begin
              (* insert or bump *)
              if Table.mem t ~key then ignore (Table.add_int t ~key ~col:"amount" d)
              else ignore (Table.insert t ~key (row key d true));
              Hashtbl.replace model key ()
            end
            else begin
              ignore (Table.delete t ~key);
              Hashtbl.remove model key
            end)
          ops;
        Table.size t = Hashtbl.length model
        && List.for_all (fun k -> Hashtbl.mem model k) (Table.keys t));
    (* The row store is a hash table, but every traversal must visit
       exactly the live keys in String.compare order with the model's
       rows: history order, join snapshots and per-base grouping are built
       from these traversals. *)
    Test.make ~name:"traversal = sorted model" ~count:300
      (list_of_size Gen.(int_range 0 200)
         (triple (int_bound 3) (int_bound 40) small_signed_int))
      (fun ops ->
        let t = fresh () in
        let model = Hashtbl.create 16 in
        List.iter
          (fun (op, k, n) ->
            let key = "k" ^ string_of_int k in
            match op with
            | 0 ->
                if Result.is_ok (Table.insert t ~key (row key n true)) then
                  Hashtbl.replace model key (row key n true)
            | 1 ->
                ignore (Table.delete t ~key);
                Hashtbl.remove model key
            | 2 ->
                if Result.is_ok (Table.set_col t ~key ~col:"regular" (Value.Bool (n >= 0))) then
                  (Hashtbl.find model key).(2) <- Value.Bool (n >= 0)
            | _ -> (
                match Table.add_int t ~key ~col:"amount" n with
                | Ok v -> (Hashtbl.find model key).(1) <- Value.Int v
                | Error _ -> ()))
          ops;
        let expected =
          Hashtbl.fold (fun k r acc -> (k, r) :: acc) model []
          |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        in
        let same_row a b = Array.length a = Array.length b && Array.for_all2 Value.equal a b in
        let same l = List.equal (fun (ka, ra) (kb, rb) -> ka = kb && same_row ra rb) expected l in
        let iterated = ref [] in
        Table.iter t (fun k r -> iterated := (k, Array.copy r) :: !iterated);
        let folded = Table.fold t ~init:[] ~f:(fun acc k r -> (k, Array.copy r) :: acc) in
        Table.keys t = List.map fst expected
        && same (List.rev !iterated)
        && same (List.rev folded)
        && Table.size t = Hashtbl.length model);
    Test.make ~name:"add_int sums match model" ~count:200
      (list_of_size Gen.(int_range 0 100) (int_range (-50) 50))
      (fun deltas ->
        let t = fresh () in
        ignore (Table.insert t ~key:"p" (row "p" 0 true));
        List.iter (fun d -> ignore (Table.add_int t ~key:"p" ~col:"amount" d)) deltas;
        match Table.get_col t ~key:"p" ~col:"amount" with
        | Ok (Value.Int n) -> n = List.fold_left ( + ) 0 deltas
        | _ -> false);
  ]

let suites =
  [
    ( "store.schema",
      [
        Alcotest.test_case "basics" `Quick test_schema_basics;
        Alcotest.test_case "rejects duplicates" `Quick test_schema_rejects_duplicates;
        Alcotest.test_case "rejects empty" `Quick test_schema_rejects_empty;
        Alcotest.test_case "validate_row" `Quick test_validate_row;
      ] );
    ( "store.table",
      [
        Alcotest.test_case "insert/get" `Quick test_insert_get;
        Alcotest.test_case "get is a copy" `Quick test_get_is_copy;
        Alcotest.test_case "insert copies input" `Quick test_insert_copies_input;
        Alcotest.test_case "set_col" `Quick test_set_col;
        Alcotest.test_case "add_int" `Quick test_add_int;
        Alcotest.test_case "delete" `Quick test_delete;
        Alcotest.test_case "iteration" `Quick test_iteration;
        Alcotest.test_case "equal_contents" `Quick test_equal_contents;
      ]
      @ List.map Gen.to_alcotest qcheck_tests );
  ]
