(* Epoch-quorum commit: the asynchronous third update class.

   Covers the happy path (buffered intents sealed by the rotating
   sequencer, every subscriber applying the same prefix) and the
   qcheck-driven structural properties: quorum intersection across
   consecutive epochs, seal idempotence under duplicated / reordered
   messages, and same-seed determinism under 4 domains. *)

open Avdb_core
module Txn_log = Avdb_txn.Txn_log

let mk_config ?(n_sites = 3) ?(n_epoch = 1) ?(seed = 7) ?(duplicate = 0.) ?(reorder = 0.)
    ?(drop = 0.) () =
  {
    Config.default with
    Config.n_sites;
    products = Product.mixed ~n_regular:0 ~n_non_regular:0 ~n_epoch ~initial_amount:1000;
    seed;
    duplicate_probability = duplicate;
    reorder_probability = reorder;
    drop_probability = drop;
  }

let submit cluster site_index ~item ~delta results =
  Site.submit_update (Cluster.site cluster site_index) ~item ~delta (fun r ->
      results := r :: !results)

let quiesce cluster =
  Cluster.run cluster;
  (* a lossy window can strand the last seal broadcast: force-flush until
     the in-doubt set drains (bounded — each pass re-sends) *)
  let rec go n =
    Cluster.flush_all_syncs cluster;
    if Cluster.unsealed_intent_total cluster > 0 && n > 0 then go (n - 1)
  in
  go 50

(* --- basic convergence --- *)

let test_single_writer_converges () =
  let cluster = Cluster.create (mk_config ()) in
  let results = ref [] in
  submit cluster 1 ~item:"epoch0" ~delta:(-40) results;
  quiesce cluster;
  (match !results with
  | [ { Update.outcome = Update.Applied Update.Epoch; _ } ] -> ()
  | rs ->
      Alcotest.failf "expected one Applied Epoch, got %d results: %a" (List.length rs)
        (Format.pp_print_list Update.pp_result)
        rs);
  Alcotest.(check (list int))
    "replicas agree" [ 960; 960; 960 ]
    (Cluster.replica_amounts cluster ~item:"epoch0");
  Alcotest.(check int) "no unsealed intents" 0 (Cluster.unsealed_intent_total cluster);
  match Cluster.sealed_epoch_agreement cluster with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_multi_writer_converges () =
  let cluster = Cluster.create (mk_config ~n_sites:5 ()) in
  let results = ref [] in
  let deltas = [ (0, 10); (1, -25); (2, 7); (3, -3); (4, 100); (1, -9); (2, 2) ] in
  List.iter (fun (s, d) -> submit cluster s ~item:"epoch0" ~delta:d results) deltas;
  quiesce cluster;
  Alcotest.(check int) "all applied" (List.length deltas) (List.length !results);
  List.iter
    (fun r ->
      match r.Update.outcome with
      | Update.Applied Update.Epoch -> ()
      | _ -> Alcotest.failf "unexpected outcome %a" Update.pp_result r)
    !results;
  let expected = 1000 + List.fold_left (fun acc (_, d) -> acc + d) 0 deltas in
  Alcotest.(check (list int))
    "replicas agree on the sum"
    (List.map (fun _ -> expected) (Cluster.subscribers cluster ~item:"epoch0"))
    (Cluster.replica_amounts cluster ~item:"epoch0");
  Alcotest.(check int) "no unsealed intents" 0 (Cluster.unsealed_intent_total cluster)

let test_epoch_goes_negative () =
  (* No stock guard on the epoch class: writers never coordinate before
     committing, so overdrafts surface as negative stock by design. *)
  let cluster = Cluster.create (mk_config ()) in
  let results = ref [] in
  submit cluster 0 ~item:"epoch0" ~delta:(-700) results;
  submit cluster 1 ~item:"epoch0" ~delta:(-700) results;
  quiesce cluster;
  Alcotest.(check (list int))
    "negative but agreed" [ -400; -400; -400 ]
    (Cluster.replica_amounts cluster ~item:"epoch0")

let test_mixed_catalogue () =
  (* Epoch items coexist with Delay and Immediate classes in one run. *)
  let config =
    {
      (mk_config ~n_sites:4 ()) with
      Config.products =
        Product.mixed ~n_regular:1 ~n_non_regular:1 ~n_epoch:1 ~initial_amount:1000;
    }
  in
  let cluster = Cluster.create config in
  let results = ref [] in
  submit cluster 1 ~item:"product0" ~delta:(-20) results;
  submit cluster 2 ~item:"special0" ~delta:(-30) results;
  submit cluster 3 ~item:"epoch0" ~delta:(-40) results;
  quiesce cluster;
  Alcotest.(check int) "three results" 3 (List.length !results);
  List.iter
    (fun r ->
      match r.Update.outcome with
      | Update.Applied _ -> ()
      | _ -> Alcotest.failf "unexpected outcome %a" Update.pp_result r)
    !results;
  List.iter
    (fun item ->
      match Cluster.replica_amounts cluster ~item with
      | first :: rest when List.for_all (fun a -> a = first) rest -> ()
      | amounts ->
          Alcotest.failf "%s replicas diverge: %s" item
            (String.concat "," (List.map string_of_int amounts)))
    [ "product0"; "special0"; "epoch0" ];
  match Cluster.check_invariants cluster with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* --- qcheck properties --- *)

let run_random_workload ?(duplicate = 0.) ?(reorder = 0.) ~seed ops =
  let n_sites = 5 in
  let cluster = Cluster.create (mk_config ~n_sites ~seed ~duplicate ~reorder ()) in
  let results = ref [] in
  List.iter
    (fun (site, delta) ->
      if delta <> 0 then submit cluster site ~item:"epoch0" ~delta results)
    ops;
  quiesce cluster;
  (cluster, !results)

(* Any two quorums of one subscriber set intersect; in particular the
   acceptor sets of two consecutive sealed epochs share a witness, which
   is exactly why a takeover sequencer cannot miss a sealed value. *)
let prop_quorum_intersection =
  QCheck.Test.make ~name:"consecutive sealed epochs share an acceptor" ~count:30
    (QCheck.pair QCheck.small_int (Gen.site_ops ~n_sites:5 ~min_len:4 ~max_len:25 ()))
    (fun (seed, ops) ->
      let cluster, _ = run_random_workload ~seed ops in
      let subs = Cluster.subscribers cluster ~item:"epoch0" in
      let quorum = (List.length subs / 2) + 1 in
      let acceptors epoch =
        List.filter
          (fun i ->
            Txn_log.epoch_accept
              (Site.txn_log (Cluster.site cluster i))
              ~item:"epoch0" ~epoch
            <> None)
          subs
      in
      let sealed =
        List.filter_map
          (fun (item, e, _) -> if String.equal item "epoch0" then Some e else None)
          (List.concat_map
             (fun i -> Txn_log.epoch_seals (Site.txn_log (Cluster.site cluster i)))
             subs)
        |> List.sort_uniq compare
      in
      List.for_all
        (fun e ->
          let a = acceptors e in
          List.length a >= quorum
          && (not (List.mem (e + 1) sealed))
          || List.exists (fun i -> List.mem i (acceptors (e + 1))) a)
        sealed)

(* Duplicated and reordered seal broadcasts must not double-apply: the
   final value is exactly initial + Σ applied deltas, on every replica. *)
let prop_seal_idempotent =
  QCheck.Test.make ~name:"seals idempotent under duplication + reordering" ~count:25
    (QCheck.pair QCheck.small_int (Gen.site_ops ~n_sites:5 ~min_len:4 ~max_len:25 ()))
    (fun (seed, ops) ->
      let cluster, results = run_random_workload ~seed ~duplicate:0.3 ~reorder:0.3 ops in
      let applied_sum =
        List.fold_left2
          (fun acc (_, delta) r ->
            match r.Update.outcome with
            | Update.Applied Update.Epoch -> acc + delta
            | _ -> acc)
          0
          (List.filter (fun (_, d) -> d <> 0) ops)
          (List.rev results)
      in
      let amounts = Cluster.replica_amounts cluster ~item:"epoch0" in
      Cluster.unsealed_intent_total cluster = 0
      && Cluster.sealed_epoch_agreement cluster = Ok ()
      && List.for_all (fun a -> a = 1000 + applied_sum) amounts)

(* Same seed, 4 domains: byte-identical protocol logs and amounts. *)
let prop_domains_deterministic =
  QCheck.Test.make ~name:"same-seed pcluster runs are byte-identical" ~count:5
    (QCheck.pair QCheck.small_int (Gen.site_ops ~n_sites:8 ~min_len:4 ~max_len:20 ()))
    (fun (seed, ops) ->
      let run () =
        let config =
          {
            (mk_config ~n_sites:8 ~n_epoch:2 ~seed ()) with
            Config.domains = 4;
            record_history = true;
          }
        in
        let p = Cluster.create config in
        List.iter
          (fun (site, delta) ->
            if delta <> 0 then
              let item = Printf.sprintf "epoch%d" (abs delta mod 2) in
              Site.submit_update (Cluster.site p site) ~item ~delta (fun _ -> ()))
          ops;
        Cluster.run p;
        Cluster.flush_all_syncs p;
        let logs =
          Array.to_list
            (Array.map (fun s -> Txn_log.to_string (Site.txn_log s)) (Cluster.sites p))
        in
        let amounts =
          List.concat_map
            (fun item -> Cluster.replica_amounts p ~item)
            [ "epoch0"; "epoch1" ]
        in
        (logs, amounts)
      in
      run () = run ())

let suites =
  [
    ( "core.epoch",
      [
        Alcotest.test_case "single writer converges" `Quick test_single_writer_converges;
        Alcotest.test_case "multi writer converges" `Quick test_multi_writer_converges;
        Alcotest.test_case "negative stock allowed" `Quick test_epoch_goes_negative;
        Alcotest.test_case "mixed catalogue" `Quick test_mixed_catalogue;
        Gen.to_alcotest prop_quorum_intersection;
        Gen.to_alcotest prop_seal_idempotent;
        Gen.to_alcotest prop_domains_deterministic;
      ] );
  ]
