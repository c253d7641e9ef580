open Avdb_store
open Avdb_core

let make ?(mode = Config.Autonomous) () =
  Cluster.create
    {
      Config.default with
      Config.mode;
      products =
        [
          Product.regular "widget" ~initial_amount:120;
          Product.non_regular "special" ~initial_amount:30;
        ];
      record_history = true;
      seed = 41;
    }

let history cluster site =
  Database.table (Site.database (Cluster.site cluster site)) Site.history_table

let run_update cluster site item delta =
  let result = ref None in
  Site.submit_update (Cluster.site cluster site) ~item ~delta (fun r -> result := Some r);
  Cluster.run cluster;
  Option.get !result

let paths table =
  Table.fold table ~init:[] ~f:(fun acc _ row -> Value.as_string row.(2) :: acc) |> List.rev

let test_delay_updates_recorded () =
  let cluster = make () in
  ignore (run_update cluster 1 "widget" (-10));
  ignore (run_update cluster 1 "widget" 5);
  ignore (run_update cluster 1 "widget" (-500));
  (* rejected: no row *)
  let h = history cluster 1 in
  Alcotest.(check int) "two applied rows" 2 (Table.size h);
  Alcotest.(check (list string)) "delay path" [ "delay"; "delay" ] (paths h);
  (* Keys are the zero-padded sequence, so iteration order = apply order. *)
  let deltas =
    Table.fold h ~init:[] ~f:(fun acc _ row -> Value.as_int row.(1) :: acc) |> List.rev
  in
  Alcotest.(check (list int)) "deltas in order" [ -10; 5 ] deltas

let test_immediate_recorded_at_all_sites () =
  let cluster = make () in
  ignore (run_update cluster 1 "special" (-3));
  for site = 0 to 2 do
    let h = history cluster site in
    Alcotest.(check int) (Printf.sprintf "site%d has the row" site) 1 (Table.size h);
    Alcotest.(check (list string)) "immediate path" [ "immediate" ] (paths h)
  done;
  (* An aborted immediate update leaves no rows anywhere. *)
  ignore (run_update cluster 1 "special" (-500));
  for site = 0 to 2 do
    Alcotest.(check int) "no row for abort" 1 (Table.size (history cluster site))
  done

let test_batch_recorded () =
  let cluster = make () in
  let result = ref None in
  Site.submit_batch (Cluster.site cluster 2)
    ~deltas:[ ("widget", -5); ("widget", -5) ]
    (fun r -> result := Some r);
  Cluster.run cluster;
  Alcotest.(check bool) "applied" true (Update.is_applied (Option.get !result));
  Alcotest.(check (list string)) "batch path" [ "delay-batch" ] (paths (history cluster 2))

let test_central_recorded_at_base_only () =
  let cluster = make ~mode:Config.Centralized () in
  ignore (run_update cluster 1 "widget" (-10));
  ignore (run_update cluster 0 "widget" 5);
  Alcotest.(check int) "base has both" 2 (Table.size (history cluster 0));
  Alcotest.(check (list string)) "central path" [ "central"; "central" ]
    (paths (history cluster 0));
  Alcotest.(check int) "retailer has none" 0 (Table.size (history cluster 1))

let test_history_survives_recovery () =
  let cluster = make () in
  ignore (run_update cluster 1 "widget" (-10));
  ignore (run_update cluster 1 "widget" (-5));
  let site1 = Cluster.site cluster 1 in
  Site.crash site1;
  Site.recover site1;
  Alcotest.(check int) "rows recovered" 2 (Table.size (history cluster 1));
  (* The sequence resumes without clashing with recovered keys. *)
  ignore (run_update cluster 1 "widget" (-1));
  Alcotest.(check int) "post-recovery row appended" 3 (Table.size (history cluster 1))

let test_history_queryable () =
  let cluster = make () in
  ignore (run_update cluster 1 "widget" (-10));
  ignore (run_update cluster 1 "widget" 4);
  ignore (run_update cluster 1 "widget" (-2));
  let h = history cluster 1 in
  let delta = Schema.index (Table.schema h) "delta" in
  let negative =
    Table.fold h ~init:0 ~f:(fun n _ row -> if Value.as_int row.(delta) < 0 then n + 1 else n)
  in
  Alcotest.(check int) "two negative updates" 2 negative

(* History rows iterate in key order, so the key encoder must keep
   lexicographic order equal to numeric order — including across the
   six-digit boundary, where plain "%06d" breaks ("1000000" < "999999"
   as strings). *)
let test_history_key_ordering () =
  Alcotest.(check string) "zero-padded" "000000" (Site.history_key 0);
  Alcotest.(check string) "matches %06d below a million" (Printf.sprintf "%06d" 4321)
    (Site.history_key 4321);
  Alcotest.(check string) "widening is marked" "~1000000" (Site.history_key 1_000_000);
  let samples =
    [ 0; 1; 9; 10; 99_999; 100_000; 999_999; 1_000_000; 1_000_001; 9_999_999; 10_000_000 ]
  in
  List.iter
    (fun n ->
      List.iter
        (fun m ->
          Alcotest.(check bool)
            (Printf.sprintf "key order %d vs %d" n m)
            (compare n m < 0)
            (String.compare (Site.history_key n) (Site.history_key m) < 0))
        samples)
    samples;
  match Site.history_key (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative key accepted"

let test_off_by_default () =
  let cluster =
    Cluster.create
      { Config.default with Config.products = [ Product.regular "w" ~initial_amount:10 ] }
  in
  Alcotest.(check bool) "no history table" true
    (Option.is_none
       (Database.table_opt (Site.database (Cluster.site cluster 0)) Site.history_table))

let suites =
  [
    ( "core.history",
      [
        Alcotest.test_case "delay updates recorded" `Quick test_delay_updates_recorded;
        Alcotest.test_case "immediate at all sites" `Quick test_immediate_recorded_at_all_sites;
        Alcotest.test_case "batch recorded" `Quick test_batch_recorded;
        Alcotest.test_case "central at base only" `Quick test_central_recorded_at_base_only;
        Alcotest.test_case "survives recovery" `Quick test_history_survives_recovery;
        Alcotest.test_case "queryable" `Quick test_history_queryable;
        Alcotest.test_case "key ordering" `Quick test_history_key_ordering;
        Alcotest.test_case "off by default" `Quick test_off_by_default;
      ] );
  ]
