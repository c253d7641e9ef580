(* The oracle's own tests: the reference model, hand-written histories
   with known verdicts, clean end-to-end runs that must be accepted, and
   the mutation suite — each test-only fault flag replays a scenario the
   checker must convict. A checker that never rejects anything is vacuous;
   this suite is what makes its acceptances meaningful. *)

open Avdb_sim
open Avdb_core
open Avdb_check
open Avdb_chaos

let at = Time.of_us

let has p (verdict : Checker.verdict) = List.exists p verdict.Checker.violations

let check_convicts name p verdict =
  Alcotest.(check bool) (name ^ ": rejected") false (Checker.ok verdict);
  Alcotest.(check bool) (name ^ ": right violation") true (has p verdict)

(* --- the reference model --- *)

let test_model_register () =
  let r = Model.init 10 in
  Alcotest.(check int) "read" 10 (Model.read r);
  (match Model.apply r ~delta:(-10) with
  | Some r' -> Alcotest.(check int) "drained" 0 (Model.read r')
  | None -> Alcotest.fail "legal update refused");
  Alcotest.(check bool) "oversell refused" true (Model.apply r ~delta:(-11) = None);
  (match Model.replay ~initial:5 [ -3; 4; -6 ] with
  | Ok v -> Alcotest.(check int) "replay" 0 v
  | Error _ -> Alcotest.fail "legal replay refused");
  match Model.replay ~initial:5 [ -3; -4; 100 ] with
  | Error (i, amount) ->
      Alcotest.(check int) "offending index" 1 i;
      Alcotest.(check int) "offending amount" 2 amount
  | Ok _ -> Alcotest.fail "oversell replay accepted"

let test_model_books () =
  let b = { Model.defined = 100; minted = 7; consumed = 30; live = 70 } in
  Alcotest.(check int) "deficit" 7 (Model.deficit b);
  Alcotest.(check bool) "leak accounted" true (Result.is_ok (Model.balance b ~leaked:7));
  Alcotest.(check bool) "leak mismatch" true (Result.is_error (Model.balance b ~leaked:0));
  let conjured = { b with Model.live = 120 } in
  Alcotest.(check bool) "negative deficit convicted" true
    (Result.is_error (Model.balance conjured ~leaked:0))

let test_model_sets () =
  let set = Alcotest.(option (array int)) in
  Alcotest.check set "subset sums" (Some [| 0; 1; 2; 3 |]) (Model.subset_sums [ 1; 2 ]);
  Alcotest.check set "sum set" (Some [| 0; 5; 7; 12 |]) (Model.sum_set [ [ 0; 5 ]; [ 0; 7 ] ]);
  Alcotest.check set "add delta" (Some [| -4; -3; 0; 1 |]) (Model.add_delta [| 0; 1 |] (-4));
  Alcotest.(check bool) "member" true (Model.mem [| -4; -3; 0; 1 |] (-3));
  Alcotest.(check bool) "non-member" false (Model.mem [| -4; -3; 0; 1 |] 2);
  Alcotest.check set "cap refuses" None
    (Model.subset_sums ~cap:4 (List.init 20 (fun i -> 1 lsl i)))

(* The model's reachable sets as sorted lists, and membership in them. *)
let set_to_list = Array.to_list
let set_mem = Model.mem

let cap_arb =
  QCheck.make
    ~print:(function Some c -> string_of_int c | None -> "default")
    QCheck.Gen.(oneofl [ Some 4; Some 16; Some 64; None ])

(* [None] exactly when the reference gives up; otherwise the same set,
   with membership agreeing on every member and on every non-member in a
   window covering all reachable sums. *)
let same_set ~window model reference =
  match (model, reference) with
  | None, None -> true
  | Some s, Some r ->
      let r = List.sort_uniq compare r in
      set_to_list s = r
      && List.for_all (set_mem s) r
      && List.for_all
           (fun v -> set_mem s v = List.mem v r)
           (List.init ((2 * window) + 1) (fun i -> i - window))
  | _ -> false

let prop_model_sum_set =
  QCheck.Test.make ~name:"model sum_set matches the list reference" ~count:500
    QCheck.(
      pair cap_arb
        (list_of_size (Gen.int_range 0 6) (list_of_size (Gen.int_range 0 4) (int_range (-20) 20))))
    (fun (cap, lists) ->
      same_set ~window:125 (Model.sum_set ?cap lists) (Check_reference.sum_set ?cap lists))

let prop_model_subset_sums =
  QCheck.Test.make ~name:"model subset_sums matches the list reference" ~count:500
    QCheck.(pair cap_arb (list_of_size (Gen.int_range 0 12) (int_range (-20) 20)))
    (fun (cap, deltas) ->
      same_set ~window:245
        (Model.subset_sums ?cap deltas)
        (Check_reference.subset_sums ?cap deltas))

(* --- hand-written histories --- *)

(* A one-site centralized world around non-regular item "x", initial 10. *)
let central_snapshot ~base_value =
  {
    Checker.mode = Config.Centralized;
    products = [ Product.non_regular "x" ~initial_amount:10 ];
    replicas = [ ("x", [ Some base_value ]) ];
    bases = [];
    books = [];
    granted = 0;
    received = 0;
    amnesiac = [];
  }

let test_accepts_linearizable () =
  let h = History.create () in
  let w = History.invoke h ~site:1 ~at:(at 0) (History.Update { item = "x"; delta = 5 }) in
  History.respond h w ~at:(at 10) (History.Applied Update.Central);
  let r = History.invoke h ~site:2 ~at:(at 20) (History.Read_auth { item = "x" }) in
  History.respond h r ~at:(at 30) (History.Read_value (Some 15));
  let v = Checker.check ~history:h (central_snapshot ~base_value:15) in
  Alcotest.(check bool) "accepted" true (Checker.ok v);
  Alcotest.(check int) "write, read and final read linearized" 3 v.Checker.stats.n_lin_ops

let test_rejects_non_linearizable () =
  let h = History.create () in
  let w = History.invoke h ~site:1 ~at:(at 0) (History.Update { item = "x"; delta = 5 }) in
  History.respond h w ~at:(at 10) (History.Applied Update.Central);
  (* Strictly after the write's response, yet shows the pre-write value. *)
  let r = History.invoke h ~site:2 ~at:(at 20) (History.Read_auth { item = "x" }) in
  History.respond h r ~at:(at 30) (History.Read_value (Some 10));
  check_convicts "stale strong read"
    (function Checker.Non_linearizable _ -> true | _ -> false)
    (Checker.check ~history:h (central_snapshot ~base_value:15))

let test_rejects_lost_write () =
  (* No client read at all: the committed write is missing from the end
     state, and only the virtual final read can notice. *)
  let h = History.create () in
  let w = History.invoke h ~site:1 ~at:(at 0) (History.Update { item = "x"; delta = 5 }) in
  History.respond h w ~at:(at 10) (History.Applied Update.Central);
  check_convicts "lost committed write"
    (function Checker.Non_linearizable _ -> true | _ -> false)
    (Checker.check ~history:h (central_snapshot ~base_value:10))

let test_rejects_double_response () =
  let h = History.create () in
  let w = History.invoke h ~site:1 ~at:(at 0) (History.Update { item = "x"; delta = 5 }) in
  History.respond h w ~at:(at 10) (History.Applied Update.Central);
  History.respond h w ~at:(at 20) (History.Applied Update.Central);
  check_convicts "double-fired continuation"
    (function Checker.Double_response _ -> true | _ -> false)
    (Checker.check ~history:h (central_snapshot ~base_value:15))

(* A two-site autonomous world around regular item "p", initial 10. *)
let autonomous_snapshot ?(books = { Model.defined = 10; minted = 0; consumed = 0; live = 10 })
    ~replicas () =
  {
    Checker.mode = Config.Autonomous;
    products = [ Product.regular "p" ~initial_amount:10 ];
    replicas = [ ("p", replicas) ];
    bases = [];
    books = [ ("p", books) ];
    granted = 0;
    received = 0;
    amnesiac = [];
  }

let delay_write h ~site ~at:t ~delta =
  let w = History.invoke h ~site ~at:(at t) (History.Update { item = "p"; delta }) in
  History.respond h w ~at:(at (t + 5)) (History.Applied Update.Local)

let sold_3 = { Model.defined = 10; minted = 0; consumed = 3; live = 7 }

let test_rejects_read_your_writes () =
  let h = History.create () in
  delay_write h ~site:1 ~at:0 ~delta:(-3);
  (* The same site then reads and sees none of its own committed write. *)
  let r = History.invoke h ~site:1 ~at:(at 20) (History.Read_local { item = "p" }) in
  History.respond h r ~at:(at 20) (History.Read_value (Some 10));
  check_convicts "forgotten own write"
    (function Checker.Stale_read _ -> true | _ -> false)
    (Checker.check ~history:h (autonomous_snapshot ~books:sold_3 ~replicas:[ Some 7; Some 7 ] ()))

let test_accepts_stale_other_site_read () =
  (* Same shape, but the reader is another site: missing a remote delta is
     exactly the staleness Delay Update licenses. *)
  let h = History.create () in
  delay_write h ~site:1 ~at:0 ~delta:(-3);
  let r = History.invoke h ~site:2 ~at:(at 20) (History.Read_local { item = "p" }) in
  History.respond h r ~at:(at 20) (History.Read_value (Some 10));
  let v = Checker.check ~history:h (autonomous_snapshot ~books:sold_3 ~replicas:[ Some 7; Some 7 ] ()) in
  Alcotest.(check bool) "licensed staleness accepted" true (Checker.ok v)

let test_rejects_divergence () =
  let h = History.create () in
  delay_write h ~site:1 ~at:0 ~delta:(-3);
  check_convicts "replicas disagree"
    (function Checker.Divergence _ -> true | _ -> false)
    (Checker.check ~history:h (autonomous_snapshot ~books:sold_3 ~replicas:[ Some 7; Some 10 ] ()))

let test_rejects_wrong_agreement () =
  (* Replicas agree — on a value the applied updates cannot produce. *)
  let h = History.create () in
  delay_write h ~site:1 ~at:0 ~delta:(-3);
  check_convicts "agreement on the wrong value"
    (function Checker.Divergence _ -> true | _ -> false)
    (Checker.check ~history:h (autonomous_snapshot ~books:sold_3 ~replicas:[ Some 9; Some 9 ] ()))

let test_rejects_negative_stock () =
  let h = History.create () in
  check_convicts "negative stock"
    (function Checker.Negative_amount _ -> true | _ -> false)
    (Checker.check ~history:h (autonomous_snapshot ~replicas:[ Some (-1); Some (-1) ] ()))

let test_rejects_av_imbalance () =
  let h = History.create () in
  let conjured = { Model.defined = 10; minted = 0; consumed = 0; live = 15 } in
  check_convicts "conjured AV"
    (function Checker.Av_imbalance _ -> true | _ -> false)
    (Checker.check ~history:h (autonomous_snapshot ~books:conjured ~replicas:[ Some 10; Some 10 ] ()))

(* --- end-to-end: scripted runs through the instrumented wrappers --- *)

let scripted_config ?sync_interval ?(allocation = Config.Even) mode =
  let base = Config.default in
  {
    base with
    Config.n_sites = 3;
    products = Product.catalogue ~n_regular:2 ~n_non_regular:1 ~initial_amount:40;
    mode;
    allocation;
    sync_interval = (match sync_interval with Some s -> s | None -> base.Config.sync_interval);
  }

type scripted = {
  cluster : Cluster.t;
  history : History.t;
  submit : int -> string -> int -> unit;
  read_local : int -> string -> int option;
  read_auth : int -> string -> unit;
}

let scripted config =
  let cluster = Cluster.create config in
  let engine = Cluster.engine cluster in
  let h = History.create () in
  ignore (History.attach_trace h (Cluster.trace cluster));
  let site i = (Cluster.sites cluster).(i) in
  let submit i item delta =
    History.submit_update h ~engine (site i) ~item ~delta (fun _ -> ());
    Cluster.run cluster
  in
  let read_local i item = History.read_local h ~engine (site i) ~item in
  let read_auth i item =
    History.read_authoritative h ~engine (site i) ~item (fun _ -> ());
    Cluster.run cluster
  in
  { cluster; history = h; submit; read_local; read_auth }

let default_script s =
  s.submit 1 "product0" (-5);
  ignore (s.read_local 1 "product0");
  s.submit 2 "product0" (-3);
  s.submit 0 "product1" 10;
  s.submit 1 "special0" (-4);
  s.submit 2 "special0" 6;
  s.read_auth 2 "special0";
  s.read_auth 1 "product1";
  ignore (s.read_local 0 "product1")

let finish s =
  if (Cluster.config s.cluster).Config.mode = Config.Autonomous then
    Cluster.flush_all_syncs s.cluster;
  let snapshot = Checker.snapshot_of_cluster s.cluster in
  Checker.check ~quiescent:true ~history:s.history snapshot

let expect_clean tag verdict =
  if not (Checker.ok verdict) then
    Alcotest.failf "%s: clean run convicted:@ %a" tag Checker.pp_verdict verdict

let test_clean_autonomous_run () =
  let s = scripted (scripted_config Config.Autonomous) in
  default_script s;
  let v = finish s in
  expect_clean "autonomous" v;
  Alcotest.(check int) "all ops recorded" 9 v.Checker.stats.n_entries;
  Alcotest.(check bool) "replica reads validated" true (v.Checker.stats.n_replica_reads > 0)

let test_clean_centralized_run () =
  let s = scripted (scripted_config Config.Centralized) in
  default_script s;
  let v = finish s in
  expect_clean "centralized" v;
  (* In the baseline every item is strong and reads join the search. *)
  Alcotest.(check bool) "strong ops linearized" true (v.Checker.stats.n_lin_ops >= 9)

let clean_nemesis_seeds = [ 1; 3; 4; 9 ]
(* Also the seeds the unilateral-abort mutation convicts below: their
   failures there are attributable to the mutation alone. *)

let test_clean_nemesis_oracle () =
  List.iter
    (fun seed ->
      let report =
        Nemesis.check ~shrink:false { (Nemesis.default ~seed) with Nemesis.oracle = true }
      in
      if not (Nemesis.passed report) then
        Alcotest.failf "seed %d: clean oracle run failed:@ %a" seed Nemesis.pp_report report;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d judged entries" seed)
        true
        (report.Nemesis.outcome.Nemesis.stats.Nemesis.oracle_entries > 0))
    clean_nemesis_seeds

(* --- the mutation suite: every seeded fault must be convicted --- *)

let test_mutation_names () =
  List.iter
    (fun m ->
      match Mutation.of_name (Mutation.name m) with
      | Ok m' -> Alcotest.(check bool) (Mutation.name m) true (m = m')
      | Error e -> Alcotest.fail e)
    Mutation.all;
  Alcotest.(check bool) "unknown rejected" true (Result.is_error (Mutation.of_name "bogus"))

let with_mutation m f () =
  Mutation.reset ();
  Mutation.enable m;
  Fun.protect ~finally:Mutation.reset f

let test_mutation_lossy_sync =
  with_mutation Mutation.Lossy_sync (fun () ->
      (* Receivers record the sync counters but drop the data: after the
         final flush the origins disagree with everyone else. *)
      let s = scripted (scripted_config Config.Autonomous) in
      s.submit 1 "product0" (-5);
      s.submit 2 "product0" (-3);
      check_convicts "lossy-sync"
        (function Checker.Divergence _ -> true | _ -> false)
        (finish s))

let test_mutation_double_deposit =
  with_mutation Mutation.Double_deposit (fun () ->
      (* All AV starts at the base, so the retailer's sale needs a grant —
         which it credits twice, conjuring volume from nothing. *)
      let s = scripted (scripted_config ~allocation:Config.All_at_base Config.Autonomous) in
      s.submit 1 "product0" (-10);
      check_convicts "double-deposit"
        (function Checker.Av_imbalance _ -> true | _ -> false)
        (finish s))

let test_mutation_stale_reads =
  with_mutation Mutation.Stale_reads (fun () ->
      (* The base serves reads from the initial catalogue: a read strictly
         after an applied update still shows the pre-update value. *)
      let s = scripted (scripted_config Config.Centralized) in
      s.submit 1 "product0" 5;
      s.read_auth 1 "product0";
      check_convicts "stale-reads"
        (function Checker.Non_linearizable _ -> true | _ -> false)
        (finish s))

let test_mutation_forget_own_writes =
  with_mutation Mutation.Forget_own_writes (fun () ->
      (* Lazy sync off: the delta stays pending, and the mutated local read
         subtracts it — read-your-writes breaks. *)
      let s = scripted (scripted_config ~sync_interval:None Config.Autonomous) in
      s.submit 1 "product0" (-5);
      let seen = s.read_local 1 "product0" in
      Alcotest.(check (option int)) "read forgot the session's write" (Some 40) seen;
      check_convicts "forget-own-writes"
        (function Checker.Stale_read _ -> true | _ -> false)
        (finish s))

(* --- epoch-quorum commit under the oracle --- *)

let epoch_scripted_config =
  {
    Config.default with
    Config.n_sites = 3;
    products = Product.mixed ~n_regular:0 ~n_non_regular:0 ~n_epoch:1 ~initial_amount:40;
    mode = Config.Autonomous;
  }

let test_clean_epoch_run () =
  let s = scripted epoch_scripted_config in
  s.submit 1 "epoch0" (-5);
  ignore (s.read_local 1 "epoch0");
  s.submit 2 "epoch0" (-3);
  s.submit 0 "epoch0" 10;
  ignore (s.read_local 2 "epoch0");
  let v = finish s in
  expect_clean "epoch" v;
  Alcotest.(check bool) "epoch reads validated" true (v.Checker.stats.n_replica_reads > 0)

let test_mutation_epoch_double_seal =
  with_mutation Mutation.Epoch_double_seal (fun () ->
      (* The sequencer applies every sealed delta twice on its own replica
         while the broadcast carries the honest seal: the proposer's copy
         diverges from the other subscribers at quiescence. *)
      let s = scripted epoch_scripted_config in
      s.submit 1 "epoch0" (-10);
      check_convicts "epoch-double-seal"
        (function Checker.Divergence _ -> true | _ -> false)
        (finish s))

let test_mutation_epoch_drop_intent =
  with_mutation Mutation.Epoch_drop_intent (fun () ->
      (* Non-proposer subscribers silently skip the first intent of every
         seal they apply: their replicas miss a committed delta. *)
      let s = scripted epoch_scripted_config in
      s.submit 1 "epoch0" (-10);
      check_convicts "epoch-drop-intent"
        (function Checker.Divergence _ -> true | _ -> false)
        (finish s))

let test_mutation_unilateral_abort =
  with_mutation Mutation.Unilateral_abort (fun () ->
      (* Needs an in-doubt window, so it runs under the nemesis: a prepared
         participant whose decision timer fires gives up unilaterally while
         the rest commit. All these seeds pass without the mutation (the
         clean sweep above); at least one must now fail. *)
      let convicted =
        List.exists
          (fun seed ->
            let report =
              Nemesis.check ~shrink:false
                { (Nemesis.default ~seed) with Nemesis.oracle = true }
            in
            not (Nemesis.passed report))
          clean_nemesis_seeds
      in
      Alcotest.(check bool) "unilateral abort convicted" true convicted)

(* --- the reachable-set cap at a read boundary --- *)

(* One item, 18 writes of deltas 2^0 .. 2^17: the writes before the last
   reach 2^17 = 131 072 distinct sums, the last one 2^18 = 262 144, past
   the 200 000 cap. A read is judged against every write invoked before it
   responded, so reads that respond before the crossing write is invoked
   are judged and every later one is skipped, including one that was
   invoked before the crossing write but answered after it. *)
let cap_boundary (product : Product.t) kind =
  let item = product.Product.name and initial = product.Product.initial_amount in
  let h = History.create () in
  let clock = ref 0 in
  let tick () =
    incr clock;
    at !clock
  in
  let invoke_write k = History.invoke h ~site:0 ~at:(tick ()) (History.Update { item; delta = 1 lsl k }) in
  let write k = History.respond h (invoke_write k) ~at:(tick ()) (History.Applied kind) in
  let invoke_read () = History.invoke h ~site:1 ~at:(tick ()) (History.Read_local { item }) in
  let answer r = History.respond h r ~at:(tick ()) (History.Read_value (Some (initial + 5))) in
  let read () = answer (invoke_read ()) in
  for k = 0 to 16 do
    write k
  done;
  read ();
  read ();
  read ();
  let straddling = invoke_read () in
  let crossing = invoke_write 17 in
  answer straddling;
  History.respond h crossing ~at:(tick ()) (History.Applied kind);
  read ();
  read ();
  let final = initial + (1 lsl 18) - 1 in
  let v =
    Checker.check ~history:h
      {
        Checker.mode = Config.Autonomous;
        products = [ product ];
        replicas = [ (item, [ Some final; Some final ]) ];
        bases = [];
        books = [];
        granted = 0;
        received = 0;
        amnesiac = [];
      }
  in
  expect_clean item v;
  Alcotest.(check int) (item ^ ": reads judged") 3 v.Checker.stats.n_replica_reads;
  Alcotest.(check int) (item ^ ": reads skipped") 3 v.Checker.stats.n_reads_skipped

let test_read_cap_strong () =
  cap_boundary (Product.non_regular "s" ~initial_amount:10) Update.Immediate

let test_read_cap_epoch () = cap_boundary (Product.epoch "e" ~initial_amount:10) Update.Epoch

(* --- the checker against the reference --- *)

(* A random small history over two Delay items, one 2PC item and one
   epoch item, built from a description so the printer can replay it:
   each operation is invoked in turn and answered [lag] invocations later
   (or never, or twice). *)
type scripted_op = {
  o_site : int;
  o_op : History.op;
  o_resp : History.resp option;  (** [None]: left pending *)
  o_fires : int;  (** responses recorded; 2 = double-fired *)
  o_lag : int;
}

type random_case = { ops : scripted_op list; snapshot : Checker.snapshot; quiescent : bool }

let random_products =
  [
    Product.regular "d0" ~initial_amount:10;
    Product.regular "d1" ~initial_amount:10;
    Product.non_regular "s0" ~initial_amount:10;
    Product.epoch "e0" ~initial_amount:10;
  ]

let random_items = List.map (fun (p : Product.t) -> p.Product.name) random_products

let build_history ops =
  let h = History.create () in
  let clock = ref 0 in
  let tick () =
    incr clock;
    at !clock
  in
  let answer (e, o) =
    match o.o_resp with
    | None -> ()
    | Some r ->
        for _ = 1 to o.o_fires do
          History.respond h e ~at:(tick ()) r
        done
  in
  let waiting =
    List.fold_left
      (fun waiting o ->
        let e = History.invoke h ~site:o.o_site ~at:(tick ()) o.o_op in
        let due, waiting =
          List.partition (fun (_, lag) -> lag = 0) (waiting @ [ ((e, o), o.o_lag) ])
        in
        List.iter (fun (x, _) -> answer x) due;
        List.map (fun (x, lag) -> (x, lag - 1)) waiting)
      [] ops
  in
  List.iter (fun (x, _) -> answer x) waiting;
  h

let random_case_gen =
  let open QCheck.Gen in
  let value = frequency [ (2, return 10); (3, int_range 6 14); (1, int_range 0 25) ] in
  (* mostly the responses the item's class produces, sometimes any *)
  let update_resp item =
    let class_resps =
      match item with
      | "s0" ->
          History.
            [
              Applied Update.Immediate;
              Rejected Update.Unreachable;
              Rejected Update.Txn_aborted;
              Rejected Update.Insufficient_stock;
            ]
      | "e0" -> History.[ Applied Update.Epoch; Rejected Update.Unreachable ]
      | _ -> History.[ Applied Update.Local; Applied (Update.With_transfer 1) ]
    in
    frequency
      [
        (4, oneofl class_resps);
        ( 1,
          oneofl
            History.
              [
                Applied Update.Central;
                Rejected Update.Av_exhausted;
                Rejected Update.Txn_aborted;
                Applied Update.Epoch;
                Applied Update.Immediate;
                Applied Update.Local;
              ] );
      ]
  in
  let op =
    let* o_site = int_bound 2 and* o_lag = int_bound 3 and* o_fires = frequencyl [ (9, 1); (1, 2) ] in
    let* o_op, o_resp =
      frequency
        [
          ( 5,
            let* item = oneofl random_items and* delta = int_range (-4) 4 in
            let* resp = frequency [ (8, map Option.some (update_resp item)); (1, return None) ] in
            return (History.Update { item; delta }, resp) );
          ( 1,
            let* deltas = list_size (int_range 1 2) (pair (oneofl [ "d0"; "d1" ]) (int_range (-4) 4)) in
            let* resp =
              oneofl
                [ Some (History.Applied Update.Local); Some (History.Rejected Update.Av_exhausted); None ]
            in
            return (History.Batch { deltas }, resp) );
          ( 4,
            let* item = oneofl random_items and* auth = bool in
            let* resp =
              frequency
                [
                  (6, map (fun v -> Some (History.Read_value (Some v))) value);
                  (1, return (Some (History.Read_value None)));
                  (1, return (Some (History.Read_failed Update.Unreachable)));
                  (1, return None);
                ]
            in
            let op = if auth then History.Read_auth { item } else History.Read_local { item } in
            return (op, resp) );
        ]
    in
    return { o_site; o_op; o_resp; o_fires; o_lag }
  in
  let* ops = list_size (int_range 0 30) op in
  let* mode = frequencyl [ (5, Config.Autonomous); (1, Config.Centralized) ] in
  let* replicas =
    flatten_l
      (List.map
         (fun item ->
           let* agreed = bool and* v = opt ~ratio:0.9 value in
           let* values = list_size (int_range 1 3) (opt ~ratio:0.9 value) in
           return (item, if agreed then List.map (fun _ -> v) values else values))
         random_items)
  in
  let* bases =
    frequency
      [ (1, return []); (2, flatten_l (List.map (fun i -> map (fun b -> (i, b)) (int_bound 2)) random_items)) ]
  in
  let* amnesiac = frequency [ (1, return []); (1, list_size (int_range 1 2) (int_bound 2)) ] in
  let* books =
    match mode with
    | Config.Centralized -> return []
    | Config.Autonomous ->
        flatten_l
          (List.map
             (fun item ->
               let* minted = int_bound 5 and* consumed = int_bound 5 and* live = int_bound 15 in
               return (item, { Model.defined = 10; minted; consumed; live }))
             [ "d0"; "d1" ])
  in
  let* granted = int_bound 3 and* received = int_bound 3 and* quiescent = bool in
  return
    {
      ops;
      snapshot =
        { Checker.mode; products = random_products; replicas; bases; books; granted; received; amnesiac };
      quiescent;
    }

let print_case c =
  Format.asprintf "%s, quiescent=%b, bases=[%s], amnesiac=[%s]@.%a"
    (match c.snapshot.Checker.mode with Config.Autonomous -> "autonomous" | Config.Centralized -> "centralized")
    c.quiescent
    (String.concat "; " (List.map (fun (i, b) -> Printf.sprintf "%s@%d" i b) c.snapshot.Checker.bases))
    (String.concat "; " (List.map string_of_int c.snapshot.Checker.amnesiac))
    History.pp (build_history c.ops)

let prop_checker_matches_reference =
  QCheck.Test.make ~name:"checker verdicts match the per-read reference" ~count:400
    (QCheck.make ~print:print_case random_case_gen)
    (fun c ->
      let h = build_history c.ops in
      let got = Checker.check ~quiescent:c.quiescent ~history:h c.snapshot in
      let want = Check_reference.check ~quiescent:c.quiescent ~history:h c.snapshot in
      let pp ppf (v : Checker.verdict) =
        let s = v.Checker.stats in
        Format.fprintf ppf "%a@.(lin ops %d, lin skipped [%s], reads %d, reads skipped %d)"
          Checker.pp_verdict v s.Checker.n_lin_ops (String.concat "; " s.Checker.lin_skipped)
          s.Checker.n_replica_reads s.Checker.n_reads_skipped
      in
      got = want || QCheck.Test.fail_reportf "checker:@ %a@.reference:@ %a" pp got pp want)

let suites =
  [
    ( "check",
      [
        Alcotest.test_case "model register" `Quick test_model_register;
        Alcotest.test_case "model books" `Quick test_model_books;
        Alcotest.test_case "model reachable sets" `Quick test_model_sets;
        Gen.to_alcotest prop_model_sum_set;
        Gen.to_alcotest prop_model_subset_sums;
        Alcotest.test_case "accepts linearizable" `Quick test_accepts_linearizable;
        Alcotest.test_case "rejects non-linearizable" `Quick test_rejects_non_linearizable;
        Alcotest.test_case "rejects lost write" `Quick test_rejects_lost_write;
        Alcotest.test_case "rejects double response" `Quick test_rejects_double_response;
        Alcotest.test_case "rejects broken read-your-writes" `Quick test_rejects_read_your_writes;
        Alcotest.test_case "accepts licensed staleness" `Quick test_accepts_stale_other_site_read;
        Alcotest.test_case "rejects divergence" `Quick test_rejects_divergence;
        Alcotest.test_case "rejects wrong agreement" `Quick test_rejects_wrong_agreement;
        Alcotest.test_case "rejects negative stock" `Quick test_rejects_negative_stock;
        Alcotest.test_case "rejects AV imbalance" `Quick test_rejects_av_imbalance;
        Alcotest.test_case "clean autonomous run" `Quick test_clean_autonomous_run;
        Alcotest.test_case "clean centralized run" `Quick test_clean_centralized_run;
        Alcotest.test_case "clean nemesis oracle" `Quick test_clean_nemesis_oracle;
        Alcotest.test_case "mutation names" `Quick test_mutation_names;
        Alcotest.test_case "mutation: lossy-sync" `Quick test_mutation_lossy_sync;
        Alcotest.test_case "mutation: double-deposit" `Quick test_mutation_double_deposit;
        Alcotest.test_case "mutation: stale-reads" `Quick test_mutation_stale_reads;
        Alcotest.test_case "mutation: forget-own-writes" `Quick test_mutation_forget_own_writes;
        Alcotest.test_case "clean epoch run" `Quick test_clean_epoch_run;
        Alcotest.test_case "mutation: epoch-double-seal" `Quick test_mutation_epoch_double_seal;
        Alcotest.test_case "mutation: epoch-drop-intent" `Quick test_mutation_epoch_drop_intent;
        Alcotest.test_case "mutation: unilateral-abort" `Quick test_mutation_unilateral_abort;
        Alcotest.test_case "read cap boundary: 2PC item" `Quick test_read_cap_strong;
        Alcotest.test_case "read cap boundary: epoch item" `Quick test_read_cap_epoch;
        Gen.to_alcotest prop_checker_matches_reference;
      ] );
  ]
