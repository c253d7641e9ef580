open Avdb_sim
open Avdb_store

let t_us = Time.of_us

let make ?(timeout = Time.of_sec 1.) () =
  let engine = Engine.create ~seed:3 () in
  (engine, Lock_manager.create ~engine ~timeout)

let expect_grant tag outcome =
  match outcome with
  | Ok () -> ()
  | Error `Timeout -> Alcotest.failf "%s: unexpected timeout" tag

let holder = Alcotest.(option int)

let test_immediate_grant () =
  let _, lm = make () in
  let granted = ref false in
  Lock_manager.acquire lm ~owner:1 ~key:"a" (fun r ->
      expect_grant "x" r;
      granted := true);
  Alcotest.(check bool) "granted synchronously" true !granted;
  Alcotest.check holder "holder" (Some 1) (Lock_manager.holder lm ~key:"a")

let test_exclusive_blocks () =
  let engine, lm = make () in
  Lock_manager.acquire lm ~owner:1 ~key:"a" (expect_grant "first");
  let second = ref false in
  Lock_manager.acquire lm ~owner:2 ~key:"a" (fun r ->
      expect_grant "second" r;
      second := true);
  Alcotest.(check bool) "second waits" false !second;
  Alcotest.(check int) "one waiting" 1 (Lock_manager.waiting lm ~key:"a");
  Lock_manager.release lm ~owner:1 ~key:"a";
  Alcotest.(check bool) "granted on release" true !second;
  ignore (Engine.run engine);
  Alcotest.check holder "ownership moved" (Some 2) (Lock_manager.holder lm ~key:"a")

let test_fifo_no_barging () =
  (* 1 holds; 2 and 3 queue in that order and are granted in that order.
     Then, with 3 queued behind holder 2, 2's own re-acquire is compatible
     with the holder but must not barge past the live waiter: it queues. *)
  let _, lm = make () in
  Lock_manager.acquire lm ~owner:1 ~key:"a" (expect_grant "x1");
  let order = ref [] in
  let note owner r =
    expect_grant (string_of_int owner) r;
    order := owner :: !order
  in
  Lock_manager.acquire lm ~owner:2 ~key:"a" (note 2);
  Lock_manager.acquire lm ~owner:3 ~key:"a" (note 3);
  Alcotest.(check (list int)) "nobody granted yet" [] !order;
  Lock_manager.release lm ~owner:1 ~key:"a";
  Alcotest.(check (list int)) "first waiter first" [ 2 ] !order;
  Lock_manager.acquire lm ~owner:2 ~key:"a" (note 2);
  Alcotest.(check (list int)) "re-acquire queued behind 3" [ 2 ] !order;
  Lock_manager.release lm ~owner:2 ~key:"a";
  Alcotest.(check (list int)) "then the second waiter" [ 3; 2 ] !order;
  Lock_manager.release lm ~owner:3 ~key:"a";
  Alcotest.(check (list int)) "the re-acquire last" [ 2; 3; 2 ] !order

let test_reentrant () =
  let _, lm = make () in
  let grants = ref 0 in
  Lock_manager.acquire lm ~owner:1 ~key:"a" (fun _ -> incr grants);
  Lock_manager.acquire lm ~owner:1 ~key:"a" (fun _ -> incr grants);
  Lock_manager.acquire lm ~owner:1 ~key:"a" (fun _ -> incr grants);
  Alcotest.(check int) "re-grants immediately" 3 !grants;
  Alcotest.(check int) "nothing queued" 0 (Lock_manager.waiting lm ~key:"a");
  Lock_manager.release lm ~owner:1 ~key:"a";
  Alcotest.check holder "one release frees" None (Lock_manager.holder lm ~key:"a")

let test_timeout () =
  let engine, lm = make ~timeout:(t_us 100) () in
  Lock_manager.acquire lm ~owner:1 ~key:"a" (expect_grant "x1");
  let outcomes = ref [] in
  Lock_manager.acquire lm ~owner:2 ~key:"a" (fun r -> outcomes := r :: !outcomes);
  ignore (Engine.run engine);
  (match !outcomes with
  | [ Error `Timeout ] -> ()
  | _ -> Alcotest.fail "expected exactly one timeout");
  (* The timed-out waiter must not receive the lock later. *)
  Lock_manager.release lm ~owner:1 ~key:"a";
  ignore (Engine.run engine);
  Alcotest.(check int) "continuation fired once" 1 (List.length !outcomes);
  Alcotest.check holder "lock free after release" None (Lock_manager.holder lm ~key:"a")

let test_no_timeout_after_grant () =
  (* A waiter granted before its deadline never sees a timeout: the grant
     cancels its timer. *)
  let engine, lm = make ~timeout:(t_us 100) () in
  Lock_manager.acquire lm ~owner:1 ~key:"a" (expect_grant "x1");
  let outcomes = ref [] in
  Lock_manager.acquire lm ~owner:2 ~key:"a" (fun r -> outcomes := r :: !outcomes);
  ignore (Engine.run ~until:(t_us 50) engine);
  Lock_manager.release lm ~owner:1 ~key:"a";
  Alcotest.(check int) "timer cancelled by the grant" 0 (Engine.pending engine);
  ignore (Engine.run engine);
  match !outcomes with [ Ok () ] -> () | _ -> Alcotest.fail "expected exactly one grant"

let test_timeout_skips_dead_waiter () =
  let engine, lm = make ~timeout:(t_us 100) () in
  Lock_manager.acquire lm ~owner:1 ~key:"a" (expect_grant "x1");
  let w2 = ref None and w3 = ref false in
  Lock_manager.acquire lm ~owner:2 ~key:"a" (fun r -> w2 := Some r);
  ignore (Engine.run ~until:(t_us 50) engine);
  Lock_manager.acquire lm ~owner:3 ~key:"a" (fun r ->
      expect_grant "x3" r;
      w3 := true);
  (* Owner 2 times out at 100us, owner 3 only at 150us; release in
     between: owner 3 is granted past the dead waiter. *)
  ignore (Engine.run ~until:(t_us 120) engine);
  (match !w2 with Some (Error `Timeout) -> () | _ -> Alcotest.fail "w2 should time out");
  Lock_manager.release lm ~owner:1 ~key:"a";
  Alcotest.(check bool) "third granted, dead waiter skipped" true !w3

let test_release_all () =
  let _, lm = make () in
  Lock_manager.acquire lm ~owner:1 ~key:"a" (expect_grant "a");
  Lock_manager.acquire lm ~owner:1 ~key:"b" (expect_grant "b");
  Lock_manager.acquire lm ~owner:1 ~key:"c" (expect_grant "c");
  let granted = ref false in
  Lock_manager.acquire lm ~owner:2 ~key:"a" (fun _ -> granted := true);
  Lock_manager.release_all lm ~owner:1;
  Alcotest.(check bool) "waiter promoted" true !granted;
  Alcotest.check holder "a moved" (Some 2) (Lock_manager.holder lm ~key:"a");
  Alcotest.check holder "b free" None (Lock_manager.holder lm ~key:"b");
  Alcotest.check holder "c free" None (Lock_manager.holder lm ~key:"c")

let test_release_all_drops_queued () =
  let engine, lm = make () in
  Lock_manager.acquire lm ~owner:1 ~key:"a" (expect_grant "x1");
  let fired = ref false in
  Lock_manager.acquire lm ~owner:2 ~key:"a" (fun _ -> fired := true);
  (* Owner 2 gives up (e.g. its transaction aborts elsewhere). *)
  Lock_manager.release_all lm ~owner:2;
  Alcotest.(check int) "its timer is cancelled" 0 (Engine.pending engine);
  Lock_manager.release lm ~owner:1 ~key:"a";
  ignore (Engine.run engine);
  Alcotest.(check bool) "dropped request never fires" false !fired;
  Alcotest.check holder "lock left free" None (Lock_manager.holder lm ~key:"a")

let test_unknown_release_ignored () =
  let _, lm = make () in
  Lock_manager.acquire lm ~owner:1 ~key:"a" (expect_grant "x1");
  Lock_manager.release lm ~owner:9 ~key:"nothing";
  Lock_manager.release lm ~owner:9 ~key:"a";
  Lock_manager.release_all lm ~owner:9;
  Alcotest.check holder "no-op" None (Lock_manager.holder lm ~key:"nothing");
  Alcotest.check holder "holder kept" (Some 1) (Lock_manager.holder lm ~key:"a")

let qcheck_tests =
  let open QCheck in
  [
    (* Model: each key has at most one holder, and it is exactly the
       owner whose continuation last got [Ok] and who has not released
       since. *)
    Test.make ~name:"mutual exclusion invariant" ~count:200
      (list_of_size Gen.(int_range 1 80) (pair (int_bound 5) (int_bound 3)))
      (fun ops ->
        let engine = Engine.create ~seed:1 () in
        let lm = Lock_manager.create ~engine ~timeout:(t_us 50) in
        let model = Hashtbl.create 4 in
        let violation = ref false in
        let grant key owner = function
          | Error `Timeout -> ()
          | Ok () -> (
              match Hashtbl.find_opt model key with
              | Some o when o <> owner -> violation := true
              | _ -> Hashtbl.replace model key owner)
        in
        let check_key key =
          if Lock_manager.holder lm ~key <> Hashtbl.find_opt model key then violation := true
        in
        List.iter
          (fun (owner, k) ->
            let key = "k" ^ string_of_int k in
            Lock_manager.acquire lm ~owner ~key (grant key owner);
            check_key key;
            (* Sometimes release. *)
            if owner mod 2 = 0 && Hashtbl.find_opt model key = Some owner then begin
              Hashtbl.remove model key;
              Lock_manager.release lm ~owner ~key
            end;
            check_key key)
          ops;
        ignore (Engine.run engine);
        not !violation);
    (* Liveness under timeouts: every continuation eventually fires. *)
    Test.make ~name:"every acquire terminates" ~count:100
      (list_of_size Gen.(int_range 1 60) (pair (int_bound 4) (int_bound 2)))
      (fun ops ->
        let engine = Engine.create ~seed:2 () in
        let lm = Lock_manager.create ~engine ~timeout:(t_us 100) in
        let outcomes = ref 0 in
        List.iter
          (fun (owner, k) ->
            Lock_manager.acquire lm ~owner ~key:("k" ^ string_of_int k) (fun _ -> incr outcomes))
          ops;
        ignore (Engine.run engine);
        !outcomes = List.length ops);
  ]

let suites =
  [
    ( "store.lock_manager",
      [
        Alcotest.test_case "immediate grant" `Quick test_immediate_grant;
        Alcotest.test_case "exclusive blocks" `Quick test_exclusive_blocks;
        Alcotest.test_case "FIFO no barging" `Quick test_fifo_no_barging;
        Alcotest.test_case "reentrant" `Quick test_reentrant;
        Alcotest.test_case "timeout" `Quick test_timeout;
        Alcotest.test_case "no timeout after grant" `Quick test_no_timeout_after_grant;
        Alcotest.test_case "timeout skips dead waiter" `Quick test_timeout_skips_dead_waiter;
        Alcotest.test_case "release_all" `Quick test_release_all;
        Alcotest.test_case "release_all drops queued" `Quick test_release_all_drops_queued;
        Alcotest.test_case "unknown release ignored" `Quick test_unknown_release_ignored;
      ]
      @ List.map Gen.to_alcotest qcheck_tests );
  ]
