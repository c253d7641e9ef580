open Avdb_sim
open Avdb_core

let at us = Time.of_us us

let test_record_and_read () =
  let t = Trace.create () in
  Trace.record t ~at:(at 1) ~category:"av" "first";
  Trace.record t ~at:(at 2) ~level:Trace.Warn ~category:"fault" "second";
  Trace.recordf t ~at:(at 3) ~category:"av" "third %d" 42;
  Alcotest.(check int) "length" 3 (Trace.length t);
  Alcotest.(check (list string)) "oldest first" [ "first"; "second"; "third 42" ]
    (List.map (fun e -> e.Trace.message) (Trace.events t));
  Alcotest.(check (list string)) "category filter" [ "first"; "third 42" ]
    (List.map (fun e -> e.Trace.message) (Trace.events ~category:"av" t));
  Alcotest.(check (list string)) "level filter" [ "second" ]
    (List.map (fun e -> e.Trace.message) (Trace.events ~min_level:Trace.Warn t))

let test_ring_eviction () =
  let t = Trace.create ~capacity:3 () in
  for i = 1 to 5 do
    Trace.record t ~at:(at i) ~category:"c" (string_of_int i)
  done;
  Alcotest.(check int) "capped length" 3 (Trace.length t);
  Alcotest.(check int) "dropped" 2 (Trace.dropped t);
  Alcotest.(check (list string)) "newest three survive, in order" [ "3"; "4"; "5" ]
    (List.map (fun e -> e.Trace.message) (Trace.events t))

let test_subscribe () =
  let t = Trace.create () in
  let seen = ref [] in
  let _sub = Trace.subscribe t (fun e -> seen := e.Trace.message :: !seen) in
  Trace.record t ~at:(at 1) ~category:"c" "live";
  Alcotest.(check (list string)) "subscriber fired" [ "live" ] !seen

let test_unsubscribe () =
  let t = Trace.create () in
  let a = ref 0 and b = ref 0 in
  let sub_a = Trace.subscribe t (fun _ -> incr a) in
  let _sub_b = Trace.subscribe t (fun _ -> incr b) in
  Trace.record t ~at:(at 1) ~category:"c" "one";
  Trace.unsubscribe t sub_a;
  Trace.record t ~at:(at 2) ~category:"c" "two";
  (* removing twice is a no-op *)
  Trace.unsubscribe t sub_a;
  Trace.record t ~at:(at 3) ~category:"c" "three";
  Alcotest.(check int) "a stopped after unsubscribe" 1 !a;
  Alcotest.(check int) "b kept firing" 3 !b

let test_clear () =
  let t = Trace.create ~capacity:2 () in
  Trace.record t ~at:(at 1) ~category:"c" "a";
  Trace.record t ~at:(at 2) ~category:"c" "b";
  Trace.record t ~at:(at 3) ~category:"c" "c";
  Trace.clear t;
  Alcotest.(check int) "cleared" 0 (Trace.length t);
  Alcotest.(check int) "dropped counter kept" 1 (Trace.dropped t);
  Trace.record t ~at:(at 4) ~category:"c" "after";
  Alcotest.(check (list string)) "usable after clear" [ "after" ]
    (List.map (fun e -> e.Trace.message) (Trace.events t))

(* [recordf] defers formatting; what [events] returns must be exactly the
   string the eager [Format.asprintf] gives for the same format and
   arguments, boxes and break hints included. *)
let test_recordf_matches_asprintf () =
  let t = Trace.create () in
  let pp_pair ppf (a, b) = Format.fprintf ppf "@[<h>(%d,@ %s)@]" a b in
  let long = String.make 70 'x' in
  Trace.recordf t ~at:(at 1) ~category:"c" "tx%d %a at %a" 7 Time.pp (at 1500) pp_pair (3, "y");
  Trace.recordf t ~at:(at 2) ~category:"c" "@[<v 2>head@,%s@,%t@]" long (fun ppf ->
      Format.pp_print_string ppf "tail");
  Trace.recordf t ~at:(at 3) ~category:"c" "%s %5.2f %-4d| 100%%@ %S" "str" 3.14159 42 "q";
  let expect =
    [
      Format.asprintf "tx%d %a at %a" 7 Time.pp (at 1500) pp_pair (3, "y");
      Format.asprintf "@[<v 2>head@,%s@,%t@]" long (fun ppf ->
          Format.pp_print_string ppf "tail");
      Format.asprintf "%s %5.2f %-4d| 100%%@ %S" "str" 3.14159 42 "q";
    ]
  in
  Alcotest.(check (list string)) "same text as asprintf" expect
    (List.map (fun e -> e.Trace.message) (Trace.events t));
  Alcotest.(check (list string)) "stable across reads" expect
    (List.map (fun e -> e.Trace.message) (Trace.events t))

(* A subscriber sees the formatted event inside the [recordf] call itself:
   [History.attach_trace] parses crash/recovery messages as they happen. *)
let test_recordf_subscriber_synchronous () =
  let t = Trace.create () in
  let seen = ref [] in
  let _sub = Trace.subscribe t (fun e -> seen := (e.Trace.category, e.Trace.message) :: !seen) in
  Trace.recordf t ~at:(at 5) ~level:Trace.Warn ~category:"fault" "site%d crashed" 3;
  Alcotest.(check (list (pair string string)))
    "delivered before recordf returns" [ ("fault", "site3 crashed") ] !seen;
  Alcotest.(check (list string)) "also retained" [ "site3 crashed" ]
    (List.map (fun e -> e.Trace.message) (Trace.events t))

let test_recordf_capacity_and_dropped () =
  let t = Trace.create ~capacity:3 () in
  for i = 1 to 5 do
    Trace.recordf t ~at:(at i) ~category:(if i mod 2 = 0 then "even" else "odd") "n=%d" i
  done;
  Alcotest.(check int) "capped length" 3 (Trace.length t);
  Alcotest.(check int) "dropped" 2 (Trace.dropped t);
  Alcotest.(check (list string)) "newest three survive, in order" [ "n=3"; "n=4"; "n=5" ]
    (List.map (fun e -> e.Trace.message) (Trace.events t));
  Alcotest.(check (list string)) "category filter" [ "n=4" ]
    (List.map (fun e -> e.Trace.message) (Trace.events ~category:"even" t));
  Alcotest.(check (list int)) "timestamps kept" [ 3; 4; 5 ]
    (List.map (fun e -> Time.to_us e.Trace.at) (Trace.events t))

let test_pp () =
  let e = { Trace.at = at 1500; level = Trace.Warn; category = "av"; message = "m" } in
  Alcotest.(check string) "render" "[1.500ms] warn av: m"
    (Format.asprintf "%a" Trace.pp_event e)

(* --- integration: sites record into the cluster trace --- *)

let test_cluster_trace_av_events () =
  let cluster =
    Cluster.create
      {
        Config.default with
        Config.products = [ Product.regular "widget" ~initial_amount:60 ];
        seed = 3;
      }
  in
  (* Force a transfer: drain beyond the local share (20 each). *)
  Site.submit_update (Cluster.site cluster 1) ~item:"widget" ~delta:(-30) (fun _ -> ());
  Cluster.run cluster;
  let av_events = Trace.events ~category:"av" (Cluster.trace cluster) in
  Alcotest.(check bool) "grant + acquisition recorded" true (List.length av_events >= 2);
  Alcotest.(check bool) "mentions the item" true
    (List.exists
       (fun e ->
         let msg = e.Trace.message in
         String.length msg >= 6
         &&
         let found = ref false in
         String.iteri
           (fun i _ ->
             if i + 6 <= String.length msg && String.sub msg i 6 = "widget" then found := true)
           msg;
         !found)
       av_events)

let test_cluster_trace_fault_events () =
  let cluster = Cluster.create { Config.default with Config.seed = 3 } in
  Site.crash (Cluster.site cluster 2);
  Site.recover (Cluster.site cluster 2);
  let faults = Trace.events ~category:"fault" (Cluster.trace cluster) in
  Alcotest.(check int) "crash + recovery" 2 (List.length faults);
  Alcotest.(check bool) "crash is a warning" true
    (match faults with e :: _ -> e.Trace.level = Trace.Warn | [] -> false)

let test_cluster_trace_2pc_events () =
  let cluster =
    Cluster.create
      {
        Config.default with
        Config.products = [ Product.non_regular "special" ~initial_amount:10 ];
        seed = 3;
      }
  in
  Site.submit_update (Cluster.site cluster 1) ~item:"special" ~delta:(-1) (fun _ -> ());
  Cluster.run cluster;
  let tpc = Trace.events ~category:"2pc" (Cluster.trace cluster) in
  Alcotest.(check int) "one decision traced" 1 (List.length tpc)

let suites =
  [
    ( "sim.trace",
      [
        Alcotest.test_case "record and read" `Quick test_record_and_read;
        Alcotest.test_case "ring eviction" `Quick test_ring_eviction;
        Alcotest.test_case "subscribe" `Quick test_subscribe;
        Alcotest.test_case "unsubscribe" `Quick test_unsubscribe;
        Alcotest.test_case "clear" `Quick test_clear;
        Alcotest.test_case "recordf matches asprintf" `Quick test_recordf_matches_asprintf;
        Alcotest.test_case "recordf subscriber synchronous" `Quick
          test_recordf_subscriber_synchronous;
        Alcotest.test_case "recordf capacity and dropped" `Quick
          test_recordf_capacity_and_dropped;
        Alcotest.test_case "pp" `Quick test_pp;
        Alcotest.test_case "cluster av events" `Quick test_cluster_trace_av_events;
        Alcotest.test_case "cluster fault events" `Quick test_cluster_trace_fault_events;
        Alcotest.test_case "cluster 2pc events" `Quick test_cluster_trace_2pc_events;
      ] );
  ]
