(* The multi-shard cluster end-to-end. The pins, in order: placement is a
   balanced deterministic partition; mail pushed between runs is drained
   before the first window; the single-shard accessors refuse a sharded
   cluster; probes wait for a barrier; same-seed multi-domain runs are
   byte-identical to each other (state, traces, spans, samples); a
   sharded run passes the consistency oracle on its merged per-shard
   histories; and the nemesis drives crashes, partitions and network
   faults through several shards deterministically. (The one-shard
   outputs are pinned in test_golden.ml.) *)

open Avdb_sim
open Avdb_core
open Avdb_workload

let item_names products = List.map (fun p -> p.Product.name) products

let scm_spec config =
  {
    Scm.n_sites = config.Config.n_sites;
    items =
      Array.of_list
        (List.map
           (fun p -> (p.Product.name, p.Product.initial_amount))
           config.Config.products);
    maker_increase_pct = 0.2;
    retailer_decrease_pct = 0.1;
    item_skew = 0.;
    maker_weight = 1;
  }

let sharded_wl config topology ~seed =
  let subscribers item =
    let base = Topology.base_index topology ~item in
    Array.of_list
      (base :: List.filter (fun i -> i <> base) (Topology.subscribers topology ~item))
  in
  Scm.create_sharded (scm_spec config) ~subscribers ~seed

(* --- placement --- *)

let test_placement_partitions () =
  let items = List.init 30 (fun i -> Printf.sprintf "product%d" i) in
  let topo = Topology.create (Topology.sharded ~spread:3 ()) ~n_sites:20 ~items in
  let p = Placement.create topo ~n_domains:4 ~items in
  Alcotest.(check int) "domains" 4 (Placement.n_domains p);
  let seen = Array.make 20 0 in
  for d = 0 to 3 do
    (* balanced: 20 sites over 4 domains is exactly 5 each *)
    Alcotest.(check int)
      (Printf.sprintf "domain %d balanced" d)
      5
      (Array.length (Placement.sites_of p d));
    Array.iter
      (fun s ->
        seen.(s) <- seen.(s) + 1;
        Alcotest.(check int) "domain_of consistent" d (Placement.domain_of p s))
      (Placement.sites_of p d)
  done;
  Array.iteri
    (fun s n -> Alcotest.(check int) (Printf.sprintf "site %d owned once" s) 1 n)
    seen;
  (* deterministic: same inputs, same partition *)
  let q = Placement.create topo ~n_domains:4 ~items in
  for s = 0 to 19 do
    Alcotest.(check int) "reproducible" (Placement.domain_of p s) (Placement.domain_of q s)
  done

let test_placement_clamps () =
  let items = [ "a" ] in
  let topo = Topology.create Topology.flat ~n_sites:2 ~items in
  let p = Placement.create topo ~n_domains:8 ~items in
  Alcotest.(check int) "clamped to site count" 2 (Placement.n_domains p)

(* --- mail pushed between runs is drained before the first window --- *)

let test_quiescent_mail_first () =
  let engines = Array.init 2 (fun _ -> Engine.create ~seed:1 ()) in
  let inbox = Mailbox.create () in
  let delivered = ref None in
  let drain () =
    List.iter
      (fun (_, _, at) ->
        ignore
          (Engine.schedule_at engines.(1) ~at (fun () ->
               delivered := Some (Engine.now engines.(1)))))
      (Mailbox.drain inbox)
  in
  (* shard 0's first event is at 10 ms; shard 1 has only the mail, due at
     2 ms, pushed before the run starts *)
  ignore (Engine.schedule_at engines.(0) ~at:(Time.of_ms 10.) ignore);
  Mailbox.push (Mailbox.sender inbox ~rank:0) (Time.of_ms 2.);
  let shards =
    [|
      { Parallel.engine = engines.(0); drain = ignore };
      { Parallel.engine = engines.(1); drain };
    |]
  in
  ignore (Parallel.run ~window:(Time.of_ms 1.) shards);
  Alcotest.(check (option int)) "delivered at its own instant" (Some 2000)
    (Option.map Time.to_us !delivered)

(* --- what only a one-shard cluster offers --- *)

let two_shards () =
  Cluster.create
    {
      Config.default with
      Config.n_sites = 4;
      products = Product.catalogue ~n_regular:2 ~n_non_regular:0 ~initial_amount:100;
      domains = 2;
    }

let test_single_shard_only () =
  let c = two_shards () in
  Alcotest.(check int) "two shards" 2 (Cluster.n_domains c);
  let raises name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted on a 2-domain cluster" name
  in
  raises "engine" (fun () -> ignore (Cluster.engine c));
  raises "trace" (fun () -> ignore (Cluster.trace c));
  raises "tracer" (fun () -> ignore (Cluster.tracer c));
  raises "registry" (fun () -> ignore (Cluster.registry c));
  raises "net_stats" (fun () -> ignore (Cluster.net_stats c));
  raises "add_retailer" (fun () -> ignore (Cluster.add_retailer c (fun _ -> ())))

(* --- probes run at the first barrier at or after their instant --- *)

let test_probe_at_barriers () =
  let c = two_shards () in
  let seen = ref [] in
  let probe ms =
    Cluster.probe_at c ~at:(Time.of_ms ms) (fun () -> seen := (ms, Cluster.now c) :: !seen)
  in
  probe 30.;
  probe 10.;
  (* keep both shards busy until 50 ms *)
  for site = 0 to 3 do
    Cluster.schedule_at_site c ~site ~at:(Time.of_ms 50.) ignore
  done;
  Cluster.run c;
  (* a hook past the end of the run fires when the shards drain *)
  probe 500.;
  Cluster.run c;
  Alcotest.(check (list (float 0.))) "in time order" [ 10.; 30.; 500. ]
    (List.rev_map fst !seen);
  List.iter
    (fun (ms, at) ->
      if ms < 100. && Time.compare at (Time.of_ms ms) < 0 then
        Alcotest.failf "probe for %.0f ms ran early, at %a" ms Time.pp at)
    !seen

(* --- same-seed multi-domain runs are byte-identical --- *)

let sharded_run ~domains =
  let config =
    {
      Config.default with
      Config.n_sites = 100;
      products = Product.catalogue ~n_regular:20 ~n_non_regular:5 ~initial_amount:100;
      topology = Topology.sharded ~spread:4 ();
      sync_interval = Some (Time.of_ms 25.);
      snapshot_interval = Some (Time.of_ms 250.);
      domains;
      seed = 11;
    }
  in
  let pc = Cluster.create config in
  let wl = sharded_wl config (Cluster.topology pc) ~seed:23 in
  let outcome = Runner.run pc ~nth_update:(Scm.generator wl) ~total_updates:200 () in
  (config, pc, outcome)

let test_parallel_deterministic () =
  let config, pc1, o1 = sharded_run ~domains:4 in
  let _, pc2, o2 = sharded_run ~domains:4 in
  Alcotest.(check int) "four shards" 4 (Cluster.n_domains pc1);
  Alcotest.(check int) "applied" o1.Runner.final.Runner.applied
    o2.Runner.final.Runner.applied;
  Alcotest.(check int) "rejected" o1.Runner.final.Runner.rejected
    o2.Runner.final.Runner.rejected;
  Alcotest.(check int) "rounds" (Cluster.rounds pc1) (Cluster.rounds pc2);
  List.iter
    (fun item ->
      Alcotest.(check (list int)) item
        (Cluster.replica_amounts pc1 ~item)
        (Cluster.replica_amounts pc2 ~item))
    (item_names config.Config.products);
  Alcotest.(check bool) "trace events identical" true
    (Cluster.trace_events pc1 = Cluster.trace_events pc2);
  Alcotest.(check bool) "spans identical" true (Cluster.spans pc1 = Cluster.spans pc2);
  Alcotest.(check bool) "metric samples identical" true
    (Cluster.metric_samples pc1 = Cluster.metric_samples pc2);
  Alcotest.(check bool) "samples were taken" true (Cluster.metric_samples pc1 <> [])

(* --- a run shorter than one probe window still gets probed --- *)

let test_short_run_probes () =
  let config =
    {
      Config.default with
      Config.n_sites = 20;
      products = Product.catalogue ~n_regular:4 ~n_non_regular:2 ~initial_amount:100;
      topology = Topology.sharded ~spread:3 ();
      sync_interval = Some (Time.of_ms 25.);
      (* One probe window far past the whole run: the periodic hook never
         fires, so only the quiescence-time pass can cover the run. *)
      snapshot_interval = Some (Time.of_ms 60_000.);
      domains = 2;
      seed = 7;
    }
  in
  let pc = Cluster.create config in
  let wl = sharded_wl config (Cluster.topology pc) ~seed:13 in
  let _ = Runner.run pc ~nth_update:(Scm.generator wl) ~total_updates:20 () in
  Alcotest.(check bool) "at least one probe pass" true (Cluster.probes_run pc >= 1)

(* --- the oracle accepts a parallel run's merged history --- *)

let test_oracle_accepts_parallel () =
  let config =
    {
      Config.default with
      Config.n_sites = 12;
      products = Product.catalogue ~n_regular:8 ~n_non_regular:4 ~initial_amount:100;
      topology = Topology.sharded ~spread:4 ();
      sync_interval = Some (Time.of_ms 25.);
      domains = 3;
      seed = 7;
    }
  in
  let pc = Cluster.create config in
  let wl = sharded_wl config (Cluster.topology pc) ~seed:31 in
  let recorders =
    Array.init (Cluster.n_domains pc) (fun _ -> Avdb_check.History.create ())
  in
  let engines = Cluster.engines pc in
  let submit site ~item ~delta k =
    let shard = Cluster.domain_of_site pc (Avdb_net.Address.to_int (Site.addr site)) in
    Avdb_check.History.submit_update recorders.(shard) ~engine:engines.(shard) site
      ~item ~delta k
  in
  ignore (Runner.run pc ~nth_update:(Scm.generator wl) ~total_updates:150 ~submit ());
  Cluster.flush_all_syncs pc;
  let history = Avdb_check.History.merge (Array.to_list recorders) in
  Alcotest.(check int) "history complete" 150 (Avdb_check.History.length history);
  let snapshot = Avdb_check.Checker.snapshot_of_pcluster pc in
  let verdict = Avdb_check.Checker.check ~quiescent:true ~history snapshot in
  if not (Avdb_check.Checker.ok verdict) then
    Alcotest.failf "oracle rejected the parallel run:@.%a" Avdb_check.Checker.pp_verdict
      verdict

(* --- nemesis on the parallel engine --- *)

let test_nemesis_parallel_seeds () =
  let open Avdb_chaos in
  for seed = 0 to 4 do
    let cfg = { (Nemesis.default ~seed) with Nemesis.domains = 2 } in
    let report = Nemesis.check ~shrink:false cfg in
    if not (Nemesis.passed report) then
      Alcotest.failf "parallel nemesis violation:@.%a" Nemesis.pp_report report
  done

let test_nemesis_parallel_oracle () =
  let open Avdb_chaos in
  let cfg = { (Nemesis.default ~seed:3) with Nemesis.domains = 2; oracle = true } in
  let report = Nemesis.check ~shrink:false cfg in
  if not (Nemesis.passed report) then
    Alcotest.failf "parallel oracle nemesis violation:@.%a" Nemesis.pp_report report;
  Alcotest.(check bool) "oracle judged the merged history" true
    (report.Nemesis.outcome.Nemesis.stats.Nemesis.oracle_entries > 0)

let test_nemesis_parallel_deterministic () =
  let open Avdb_chaos in
  let cfg = { (Nemesis.default ~seed:42) with Nemesis.domains = 2 } in
  let schedule = Nemesis.generate cfg in
  let a = Nemesis.execute cfg schedule and b = Nemesis.execute cfg schedule in
  Alcotest.(check bool) "parallel execution is reproducible" true (a = b)

let test_nemesis_rejects_disk_faults_parallel () =
  let open Avdb_chaos in
  let cfg =
    { (Nemesis.default ~seed:1) with Nemesis.domains = 2; Nemesis.disk_faults = true }
  in
  match Nemesis.execute cfg [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "disk faults accepted with domains > 1"

let suites =
  [
    ( "core.parallel",
      [
        Alcotest.test_case "placement partitions sites" `Quick test_placement_partitions;
        Alcotest.test_case "placement clamps domains" `Quick test_placement_clamps;
        Alcotest.test_case "quiescent mail drained first" `Quick test_quiescent_mail_first;
        Alcotest.test_case "single-shard accessors refuse" `Quick test_single_shard_only;
        Alcotest.test_case "probes wait for a barrier" `Quick test_probe_at_barriers;
        Alcotest.test_case "short run still probed" `Quick test_short_run_probes;
        Alcotest.test_case "same-seed runs byte-identical" `Quick
          test_parallel_deterministic;
        Alcotest.test_case "oracle accepts merged history" `Quick
          test_oracle_accepts_parallel;
        Alcotest.test_case "nemesis seeds pass" `Slow test_nemesis_parallel_seeds;
        Alcotest.test_case "nemesis oracle passes" `Slow test_nemesis_parallel_oracle;
        Alcotest.test_case "nemesis deterministic" `Quick
          test_nemesis_parallel_deterministic;
        Alcotest.test_case "nemesis rejects disk faults" `Quick
          test_nemesis_rejects_disk_faults_parallel;
      ] );
  ]
