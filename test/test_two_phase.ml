open Avdb_net
open Avdb_txn

let addr = Address.of_int

module C = Two_phase.Coordinator

let action =
  let pp ppf = function
    | C.Broadcast_prepare -> Format.pp_print_string ppf "prepare"
    | C.Broadcast_decision d -> Format.fprintf ppf "decision(%a)" Two_phase.pp_decision d
    | C.Completed d -> Format.fprintf ppf "completed(%a)" Two_phase.pp_decision d
    | C.Cleanup d -> Format.fprintf ppf "cleanup(%a)" Two_phase.pp_decision d
  in
  Alcotest.testable pp ( = )

(* Paper topology: coordinator = retailer site 1, participants = base site 0
   and retailer site 2; base ack signals completion. *)
let make () = C.create ~txid:7 ~participants:[ addr 0; addr 2 ] ~base:(addr 0)

let test_commit_flow () =
  let c = make () in
  Alcotest.(check (list action)) "start broadcasts prepare" [ C.Broadcast_prepare ]
    (C.start c ~local_vote:Two_phase.Ready);
  Alcotest.(check (list action)) "first vote pending" [] (C.on_vote c ~from:(addr 2) Two_phase.Ready);
  Alcotest.(check (list action)) "all votes -> commit"
    [ C.Broadcast_decision Two_phase.Commit ]
    (C.on_vote c ~from:(addr 0) Two_phase.Ready);
  Alcotest.(check (option bool)) "decision" (Some true)
    (Option.map (fun d -> d = Two_phase.Commit) (C.decision c));
  (* Non-base ack: nothing user-visible. *)
  Alcotest.(check (list action)) "retailer ack silent" [] (C.on_ack c ~from:(addr 2));
  (* Base ack: completion + everyone acked -> cleanup. *)
  Alcotest.(check (list action)) "base ack completes"
    [ C.Completed Two_phase.Commit; C.Cleanup Two_phase.Commit ]
    (C.on_ack c ~from:(addr 0));
  Alcotest.(check bool) "done" true (C.is_done c)

let test_base_ack_before_others () =
  let c = make () in
  ignore (C.start c ~local_vote:Two_phase.Ready);
  ignore (C.on_vote c ~from:(addr 0) Two_phase.Ready);
  ignore (C.on_vote c ~from:(addr 2) Two_phase.Ready);
  Alcotest.(check (list action)) "base ack -> completed, not yet cleanup"
    [ C.Completed Two_phase.Commit ]
    (C.on_ack c ~from:(addr 0));
  Alcotest.(check bool) "not done yet" false (C.is_done c);
  Alcotest.(check (list action)) "last ack -> cleanup only"
    [ C.Cleanup Two_phase.Commit ]
    (C.on_ack c ~from:(addr 2))

let test_refuse_aborts_immediately () =
  let c = make () in
  ignore (C.start c ~local_vote:Two_phase.Ready);
  Alcotest.(check (list action)) "refuse -> abort broadcast"
    [ C.Broadcast_decision Two_phase.Abort ]
    (C.on_vote c ~from:(addr 2) Two_phase.Refuse);
  (* A straggler Ready vote after the decision is ignored. *)
  Alcotest.(check (list action)) "straggler ignored" [] (C.on_vote c ~from:(addr 0) Two_phase.Ready)

let test_local_refuse () =
  let c = make () in
  (* Coordinator's own site cannot apply: abort without any prepare. *)
  Alcotest.(check (list action)) "local refuse"
    [ C.Broadcast_decision Two_phase.Abort ]
    (C.start c ~local_vote:Two_phase.Refuse)

let test_vote_timeout () =
  let c = make () in
  ignore (C.start c ~local_vote:Two_phase.Ready);
  ignore (C.on_vote c ~from:(addr 0) Two_phase.Ready);
  Alcotest.(check (list action)) "timeout aborts"
    [ C.Broadcast_decision Two_phase.Abort ]
    (C.on_vote_timeout c);
  Alcotest.(check (list action)) "second timeout no-op" [] (C.on_vote_timeout c)

let test_ack_timeout () =
  let c = make () in
  ignore (C.start c ~local_vote:Two_phase.Ready);
  ignore (C.on_vote c ~from:(addr 0) Two_phase.Ready);
  ignore (C.on_vote c ~from:(addr 2) Two_phase.Ready);
  ignore (C.on_ack c ~from:(addr 2));
  (* Base never acks; give up. Completion must still be reported exactly
     once. *)
  Alcotest.(check (list action)) "ack timeout completes and cleans"
    [ C.Completed Two_phase.Commit; C.Cleanup Two_phase.Commit ]
    (C.on_ack_timeout c);
  Alcotest.(check bool) "done" true (C.is_done c)

let test_no_participants () =
  let c = C.create ~txid:1 ~participants:[] ~base:(addr 0) in
  Alcotest.(check (list action)) "solo commit"
    [ C.Completed Two_phase.Commit; C.Cleanup Two_phase.Commit ]
    (C.start c ~local_vote:Two_phase.Ready)

let test_coordinator_is_base () =
  (* Base not among remote participants: completion at decision time. *)
  let c = C.create ~txid:2 ~participants:[ addr 1; addr 2 ] ~base:(addr 0) in
  ignore (C.start c ~local_vote:Two_phase.Ready);
  ignore (C.on_vote c ~from:(addr 1) Two_phase.Ready);
  Alcotest.(check (list action)) "decision includes completion"
    [ C.Broadcast_decision Two_phase.Commit; C.Completed Two_phase.Commit ]
    (C.on_vote c ~from:(addr 2) Two_phase.Ready);
  Alcotest.(check (list action)) "acks then cleanup only" []
    (C.on_ack c ~from:(addr 1));
  Alcotest.(check (list action)) "last ack"
    [ C.Cleanup Two_phase.Commit ]
    (C.on_ack c ~from:(addr 2))

let test_duplicate_and_foreign_votes_ignored () =
  let c = make () in
  ignore (C.start c ~local_vote:Two_phase.Ready);
  ignore (C.on_vote c ~from:(addr 0) Two_phase.Ready);
  Alcotest.(check (list action)) "duplicate" [] (C.on_vote c ~from:(addr 0) Two_phase.Ready);
  Alcotest.(check (list action)) "foreign site" [] (C.on_vote c ~from:(addr 9) Two_phase.Ready);
  Alcotest.(check bool) "still undecided" true (C.decision c = None)

let test_double_start_rejected () =
  let c = make () in
  ignore (C.start c ~local_vote:Two_phase.Ready);
  match C.start c ~local_vote:Two_phase.Ready with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "double start accepted"

(* --- recovered coordinator --- *)

let test_recovered_coordinator () =
  let c =
    C.recovered ~txid:9 ~participants:[ addr 0; addr 2 ] ~base:(addr 0) Two_phase.Commit
  in
  Alcotest.(check bool) "decision preserved" true (C.decision c = Some Two_phase.Commit);
  Alcotest.(check bool) "not done until acks" false (C.is_done c);
  (* Re-broadcast repeats while acks are outstanding and never Completes
     (the submitting client died with the crashed incarnation). *)
  Alcotest.(check (list action)) "rebroadcast"
    [ C.Broadcast_decision Two_phase.Commit ]
    (C.rebroadcast c);
  Alcotest.(check (list action)) "rebroadcast again"
    [ C.Broadcast_decision Two_phase.Commit ]
    (C.rebroadcast c);
  Alcotest.(check (list action)) "first ack silent" [] (C.on_ack c ~from:(addr 2));
  Alcotest.(check (list action)) "last ack cleans up, no Completed"
    [ C.Cleanup Two_phase.Commit ]
    (C.on_ack c ~from:(addr 0));
  Alcotest.(check bool) "done" true (C.is_done c);
  Alcotest.(check (list action)) "rebroadcast after done" [] (C.rebroadcast c)

let test_recovered_coordinator_no_participants () =
  let c = C.recovered ~txid:9 ~participants:[] ~base:(addr 0) Two_phase.Abort in
  Alcotest.(check bool) "immediately done" true (C.is_done c);
  Alcotest.(check (list action)) "nothing to rebroadcast" [] (C.rebroadcast c)

(* --- Txn_log --- *)

let test_txn_log () =
  let open Avdb_sim in
  let log = Txn_log.create () in
  Txn_log.record_start log ~txid:1 ~coordinator:(addr 1) ~cohort:[ addr 0; addr 2 ]
    ~item:"x" ~delta:(-5) ~at:(Time.of_us 10);
  Txn_log.record_start log ~txid:2 ~coordinator:(addr 2) ~cohort:[ addr 0; addr 1 ]
    ~item:"y" ~delta:3 ~at:(Time.of_us 20);
  Alcotest.(check int) "in flight" 2 (Txn_log.in_flight log);
  Alcotest.(check int) "in doubt" 2 (List.length (Txn_log.in_doubt log));
  Txn_log.record_outcome log ~txid:1 Two_phase.Commit ~at:(Time.of_us 30);
  Txn_log.record_outcome log ~txid:2 Two_phase.Abort ~at:(Time.of_us 40);
  (* Second outcome is ignored. *)
  Txn_log.record_outcome log ~txid:1 Two_phase.Abort ~at:(Time.of_us 50);
  Alcotest.(check int) "committed" 1 (Txn_log.committed log);
  Alcotest.(check int) "aborted" 1 (Txn_log.aborted log);
  Alcotest.(check int) "none in flight" 0 (Txn_log.in_flight log);
  Alcotest.(check int) "none in doubt" 0 (List.length (Txn_log.in_doubt log));
  (match Txn_log.find log ~txid:1 with
  | Some e ->
      Alcotest.(check bool) "kept first outcome" true (e.Txn_log.outcome = Some Two_phase.Commit);
      Alcotest.(check (option int)) "finish time" (Some 30)
        (Option.map Time.to_us e.Txn_log.finished_at);
      Alcotest.(check int) "cohort logged" 2 (List.length e.Txn_log.cohort);
      Alcotest.(check bool) "not ended yet" false e.Txn_log.ended
  | None -> Alcotest.fail "entry missing");
  Txn_log.record_end log ~txid:1 ~at:(Time.of_us 60);
  (match Txn_log.find log ~txid:1 with
  | Some e -> Alcotest.(check bool) "ended" true e.Txn_log.ended
  | None -> Alcotest.fail "entry missing");
  Txn_log.record_outcome log ~txid:99 Two_phase.Commit ~at:(Time.of_us 1);
  Alcotest.(check int) "unknown txid ignored" 1 (Txn_log.committed log);
  Alcotest.(check int) "max txid" 2 (Txn_log.max_txid log);
  Alcotest.(check bool) "not refused" false (Txn_log.is_refused log ~txid:7);
  Txn_log.record_refused log ~txid:7 ~at:(Time.of_us 70);
  Alcotest.(check bool) "refused pledge durable" true (Txn_log.is_refused log ~txid:7);
  match
    Txn_log.record_start log ~txid:1 ~coordinator:(addr 1) ~cohort:[] ~item:"x" ~delta:0
      ~at:Time.zero
  with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "duplicate start accepted"

let test_txn_log_serialisation () =
  let open Avdb_sim in
  let log = Txn_log.create () in
  Txn_log.record_start log ~txid:1_000_003 ~coordinator:(addr 1)
    ~cohort:[ addr 0; addr 2 ] ~item:"weird|item%name" ~delta:(-5) ~at:(Time.of_us 10);
  Txn_log.record_outcome log ~txid:1_000_003 Two_phase.Commit ~at:(Time.of_us 30);
  Txn_log.record_end log ~txid:1_000_003 ~at:(Time.of_us 40);
  Txn_log.record_refused log ~txid:55 ~at:(Time.of_us 50);
  let s = Txn_log.to_string log in
  (match Txn_log.of_string s with
  | Error e -> Alcotest.fail (Avdb_store.Corruption.to_string e)
  | Ok log' ->
      Alcotest.(check int) "record count survives" (Txn_log.length log)
        (Txn_log.length log');
      Alcotest.(check bool) "refusal survives" true (Txn_log.is_refused log' ~txid:55);
      (match Txn_log.find log' ~txid:1_000_003 with
      | Some e ->
          Alcotest.(check string) "item" "weird|item%name" e.Txn_log.item;
          Alcotest.(check bool) "outcome" true (e.Txn_log.outcome = Some Two_phase.Commit);
          Alcotest.(check bool) "ended" true e.Txn_log.ended;
          Alcotest.(check int) "cohort" 2 (List.length e.Txn_log.cohort)
      | None -> Alcotest.fail "entry lost"));
  (* A torn final line is a crash mid-append: recover the prefix. *)
  let torn = s ^ "\nO|1_000" in
  (match Txn_log.of_string torn with
  | Error e -> Alcotest.fail ("torn tail should recover: " ^ Avdb_store.Corruption.to_string e)
  | Ok log' -> Alcotest.(check int) "prefix recovered" (Txn_log.length log) (Txn_log.length log'));
  (* The same garbage mid-log is corruption and must fail. *)
  match Txn_log.of_string ("O|1_000\n" ^ s) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mid-log corruption accepted"

let qcheck_tests =
  let open QCheck in
  (* Random vote/ack sequences: exactly one Completed, exactly one Cleanup,
     decision consistent (commit only if every participant voted ready
     before any refuse/timeout decision point). *)
  [
    Test.make ~name:"coordinator emits exactly one Completed and Cleanup" ~count:500
      (pair (int_range 0 5)
         (list_of_size Gen.(int_range 0 30) (pair (int_bound 5) (int_bound 3))))
      (fun (n_participants, events) ->
        let participants = List.init n_participants addr in
        let c = C.create ~txid:1 ~participants ~base:(addr 0) in
        let completed = ref 0 and cleanups = ref 0 in
        let run actions =
          List.iter
            (function C.Completed _ -> incr completed | C.Cleanup _ -> incr cleanups | _ -> ())
            actions
        in
        run (C.start c ~local_vote:Two_phase.Ready);
        List.iter
          (fun (site, kind) ->
            let from = addr site in
            match kind with
            | 0 -> run (C.on_vote c ~from Two_phase.Ready)
            | 1 -> run (C.on_vote c ~from Two_phase.Refuse)
            | 2 -> run (C.on_ack c ~from)
            | _ -> run (C.on_vote_timeout c))
          events;
        (* Force completion at the end, like a site shutting down. *)
        run (C.on_ack_timeout c);
        (match C.decision c with
        | None -> run (C.on_vote_timeout c); run (C.on_ack_timeout c)
        | Some _ -> ());
        !completed = 1 && !cleanups = 1 && C.is_done c);
  ]

let suites =
  [
    ( "txn.two_phase",
      [
        Alcotest.test_case "commit flow" `Quick test_commit_flow;
        Alcotest.test_case "base ack before others" `Quick test_base_ack_before_others;
        Alcotest.test_case "refuse aborts immediately" `Quick test_refuse_aborts_immediately;
        Alcotest.test_case "local refuse" `Quick test_local_refuse;
        Alcotest.test_case "vote timeout" `Quick test_vote_timeout;
        Alcotest.test_case "ack timeout" `Quick test_ack_timeout;
        Alcotest.test_case "no participants" `Quick test_no_participants;
        Alcotest.test_case "coordinator is base" `Quick test_coordinator_is_base;
        Alcotest.test_case "duplicate/foreign votes" `Quick test_duplicate_and_foreign_votes_ignored;
        Alcotest.test_case "double start rejected" `Quick test_double_start_rejected;
        Alcotest.test_case "recovered coordinator" `Quick test_recovered_coordinator;
        Alcotest.test_case "recovered coordinator, no participants" `Quick
          test_recovered_coordinator_no_participants;
        Alcotest.test_case "txn log" `Quick test_txn_log;
        Alcotest.test_case "txn log serialisation" `Quick test_txn_log_serialisation;
      ]
      @ List.map Gen.to_alcotest qcheck_tests );
  ]
