open Avdb_sim

let t_us = Time.of_us

let drain q =
  let rec loop acc =
    match Event_queue.pop q with
    | None -> List.rev acc
    | Some (time, v) -> loop ((Time.to_us time, v) :: acc)
  in
  loop []

let test_ordering () =
  let q = Event_queue.create () in
  ignore (Event_queue.add q ~time:(t_us 30) "c");
  ignore (Event_queue.add q ~time:(t_us 10) "a");
  ignore (Event_queue.add q ~time:(t_us 20) "b");
  Alcotest.(check (list (pair int string)))
    "time order"
    [ (10, "a"); (20, "b"); (30, "c") ]
    (drain q)

let test_fifo_ties () =
  let q = Event_queue.create () in
  ignore (Event_queue.add q ~time:(t_us 5) "first");
  ignore (Event_queue.add q ~time:(t_us 5) "second");
  ignore (Event_queue.add q ~time:(t_us 5) "third");
  Alcotest.(check (list (pair int string)))
    "insertion order at equal times"
    [ (5, "first"); (5, "second"); (5, "third") ]
    (drain q)

let test_cancel () =
  let q = Event_queue.create () in
  ignore (Event_queue.add q ~time:(t_us 1) "keep1");
  let h = Event_queue.add q ~time:(t_us 2) "dropped" in
  ignore (Event_queue.add q ~time:(t_us 3) "keep2");
  Event_queue.cancel h;
  Alcotest.(check bool) "is_cancelled" true (Event_queue.is_cancelled h);
  Alcotest.(check int) "length excludes cancelled" 2 (Event_queue.length q);
  Alcotest.(check (list (pair int string)))
    "cancelled never pops"
    [ (1, "keep1"); (3, "keep2") ]
    (drain q)

let test_cancel_idempotent () =
  let q = Event_queue.create () in
  let h = Event_queue.add q ~time:(t_us 1) () in
  Event_queue.cancel h;
  Event_queue.cancel h;
  Alcotest.(check bool) "empty after cancel" true (Event_queue.is_empty q);
  Alcotest.(check (list (pair int unit))) "drains empty" [] (drain q)

let test_peek () =
  let q = Event_queue.create () in
  Alcotest.(check (option int)) "peek empty" None (Option.map Time.to_us (Event_queue.peek_time q));
  let h = Event_queue.add q ~time:(t_us 4) "x" in
  ignore (Event_queue.add q ~time:(t_us 9) "y");
  Alcotest.(check (option int)) "peek min" (Some 4) (Option.map Time.to_us (Event_queue.peek_time q));
  Event_queue.cancel h;
  Alcotest.(check (option int))
    "peek skips cancelled" (Some 9)
    (Option.map Time.to_us (Event_queue.peek_time q))

let test_counters () =
  let q = Event_queue.create () in
  for i = 1 to 5 do
    ignore (Event_queue.add q ~time:(t_us i) i)
  done;
  Alcotest.(check int) "scheduled_total" 5 (Event_queue.scheduled_total q);
  ignore (Event_queue.pop q);
  Alcotest.(check int) "length after pop" 4 (Event_queue.length q);
  Alcotest.(check int) "scheduled_total is lifetime" 5 (Event_queue.scheduled_total q)

let test_interleaved_add_pop () =
  let q = Event_queue.create () in
  ignore (Event_queue.add q ~time:(t_us 10) 10);
  ignore (Event_queue.add q ~time:(t_us 5) 5);
  (match Event_queue.pop q with
  | Some (_, 5) -> ()
  | _ -> Alcotest.fail "expected 5");
  ignore (Event_queue.add q ~time:(t_us 1) 1);
  (match Event_queue.pop q with
  | Some (_, 1) -> ()
  | _ -> Alcotest.fail "expected 1 (added after a pop)");
  match Event_queue.pop q with
  | Some (_, 10) -> ()
  | _ -> Alcotest.fail "expected 10"

(* Cancelling removes the entry at once: a long add-then-cancel churn of
   far-future events must not accumulate dead entries (or their payloads)
   in the heap. *)
let test_cancel_frees_entries () =
  let q = Event_queue.create () in
  ignore (Event_queue.add q ~time:(t_us 1) [| 0 |]);
  let baseline = Obj.reachable_words (Obj.repr q) in
  for i = 1 to 100_000 do
    let h = Event_queue.add q ~time:(t_us (1_000_000_000 + i)) [| i |] in
    Event_queue.cancel h
  done;
  Alcotest.(check int) "one live event" 1 (Event_queue.length q);
  let words = Obj.reachable_words (Obj.repr q) in
  if words > baseline + 64 then
    Alcotest.failf "queue grew from %d to %d words over cancelled events" baseline words

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"pop sequence is sorted by time" ~count:300
      (list_of_size Gen.(int_range 0 200) (int_bound 1_000))
      (fun times ->
        let q = Event_queue.create () in
        List.iter (fun time -> ignore (Event_queue.add q ~time:(t_us time) time)) times;
        let popped = List.map fst (drain q) in
        popped = List.sort compare times);
    Test.make ~name:"cancelled subset never surfaces" ~count:300
      (list_of_size Gen.(int_range 0 100) (pair (int_bound 1_000) bool))
      (fun entries ->
        let q = Event_queue.create () in
        let kept = ref [] in
        List.iter
          (fun (time, cancel) ->
            let h = Event_queue.add q ~time:(t_us time) time in
            if cancel then Event_queue.cancel h else kept := time :: !kept)
          entries;
        let popped = List.map fst (drain q) in
        popped = List.sort compare !kept);
    (* Interleaved add/cancel/pop against a reference model: after every
       operation the pop result, earliest time, live count and emptiness
       must match a naive sorted-list implementation. Times come from a
       tiny range so equal-time siblings tie-break on sequence numbers. The
       cancel target is drawn separately, over every handle ever made, so
       cancels hit root, interior and last heap slots, entries queued long
       ago, and entries that already popped or were already cancelled. *)
    Test.make ~name:"add/cancel/pop agrees with reference model" ~count:500
      (list_of_size Gen.(int_range 0 200) (triple (int_bound 2) (int_bound 8) (int_bound 1_000)))
      (fun ops ->
        let q = Event_queue.create () in
        (* model: live (seq, time) entries, plus every handle ever made *)
        let model = ref [] and handles = ref [||] and seq = ref 0 in
        let ok = ref true in
        let sorted () = List.sort (fun (s1, t1) (s2, t2) -> compare (t1, s1) (t2, s2)) !model in
        List.iter
          (fun (op, time, idx) ->
            (match op with
            | 0 ->
                let h = Event_queue.add q ~time:(t_us time) !seq in
                model := (!seq, time) :: !model;
                handles := Array.append !handles [| (h, !seq) |];
                incr seq
            | 1 ->
                if Array.length !handles > 0 then begin
                  let h, id = !handles.(idx mod Array.length !handles) in
                  Event_queue.cancel h;
                  model := List.filter (fun (id', _) -> id' <> id) !model
                end
            | _ ->
                let expect =
                  match sorted () with
                  | [] -> None
                  | ((id, time) as hd) :: _ ->
                      model := List.filter (fun e -> e <> hd) !model;
                      Some (time, id)
                in
                let got =
                  Option.map (fun (time, id) -> (Time.to_us time, id)) (Event_queue.pop q)
                in
                if got <> expect then ok := false);
            let expect_peek = match sorted () with [] -> None | (_, time) :: _ -> Some time in
            if
              Event_queue.length q <> List.length !model
              || Event_queue.is_empty q <> (!model = [])
              || Option.map Time.to_us (Event_queue.peek_time q) <> expect_peek
            then ok := false)
          ops;
        !ok);
    (* Cancels scattered through a large heap: each one moves the last
       entry into a hole that may sit deep in another subtree, so it must
       sift up as well as down. Earliest time is checked after every cancel
       and the survivors must drain in (time, insertion) order. *)
    Test.make ~name:"cancels deep in a large heap keep it ordered" ~count:200
      (pair
         (list_of_size Gen.(int_range 1 300) (int_bound 1_000))
         (list_of_size Gen.(int_range 0 300) (int_bound 10_000)))
      (fun (times, cancels) ->
        let q = Event_queue.create () in
        let handles =
          Array.of_list (List.mapi (fun i time -> Event_queue.add q ~time:(t_us time) i) times)
        in
        let live = Array.make (Array.length handles) true in
        let times = Array.of_list times in
        let earliest () =
          let best = ref None in
          Array.iteri
            (fun i time ->
              if live.(i) then
                match !best with Some b when b <= time -> () | _ -> best := Some time)
            times;
          !best
        in
        let ok = ref true in
        List.iter
          (fun c ->
            let i = c mod Array.length handles in
            Event_queue.cancel handles.(i);
            live.(i) <- false;
            if Option.map Time.to_us (Event_queue.peek_time q) <> earliest () then ok := false)
          cancels;
        let survivors =
          List.filteri (fun i _ -> live.(i)) (List.mapi (fun i time -> (time, i)) (Array.to_list times))
        in
        !ok && drain q = List.sort compare survivors);
    Test.make ~name:"length counts live entries" ~count:300
      (list_of_size Gen.(int_range 0 100) (pair (int_bound 1_000) bool))
      (fun entries ->
        let q = Event_queue.create () in
        let live = ref 0 in
        List.iter
          (fun (time, cancel) ->
            let h = Event_queue.add q ~time:(t_us time) () in
            if cancel then Event_queue.cancel h else incr live)
          entries;
        Event_queue.length q = !live);
  ]

let suites =
  [
    ( "sim.event_queue",
      [
        Alcotest.test_case "ordering" `Quick test_ordering;
        Alcotest.test_case "FIFO at equal times" `Quick test_fifo_ties;
        Alcotest.test_case "cancel" `Quick test_cancel;
        Alcotest.test_case "cancel idempotent" `Quick test_cancel_idempotent;
        Alcotest.test_case "peek" `Quick test_peek;
        Alcotest.test_case "counters" `Quick test_counters;
        Alcotest.test_case "interleaved add/pop" `Quick test_interleaved_add_pop;
        Alcotest.test_case "cancel frees entries" `Quick test_cancel_frees_entries;
      ]
      @ List.map Gen.to_alcotest qcheck_tests );
  ]
