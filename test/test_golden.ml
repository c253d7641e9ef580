(* Golden pins for the one-shard system: exact digests of nemesis outcomes
   (stats and violations) across every update class, with and without
   storage faults and the consistency oracle, and of one simulated run's
   trace events, spans, metric samples and runner outcome. Any change to
   event order, RNG consumption or message traffic on the single-domain
   path moves a digest; a refactor that claims to preserve behaviour must
   leave every pin in place. *)

open Avdb_sim
open Avdb_core
open Avdb_chaos

let digest v = Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

(* --- nemesis outcomes --- *)

let classes =
  let with_items ~regular ~non_regular ~epoch (c : Nemesis.config) =
    { c with Nemesis.n_regular = regular; n_non_regular = non_regular; n_epoch = epoch }
  in
  [
    ("delay", with_items ~regular:4 ~non_regular:0 ~epoch:0);
    ("immediate", with_items ~regular:0 ~non_regular:4 ~epoch:0);
    ("epoch", with_items ~regular:0 ~non_regular:0 ~epoch:3);
    ("mixed", with_items ~regular:3 ~non_regular:2 ~epoch:2);
  ]

let flags =
  [
    ("plain", fun (c : Nemesis.config) -> c);
    ("disk", fun (c : Nemesis.config) -> { c with Nemesis.disk_faults = true });
    ("oracle", fun (c : Nemesis.config) -> { c with Nemesis.oracle = true });
    ( "disk+oracle",
      fun (c : Nemesis.config) -> { c with Nemesis.disk_faults = true; oracle = true } );
  ]

let seeds = [ 1; 2 ]

let nemesis_cases =
  List.concat_map
    (fun (cname, cls) ->
      List.concat_map
        (fun (fname, flag) ->
          List.map
            (fun seed ->
              ( Printf.sprintf "%s/%s/seed%d" cname fname seed,
                flag (cls (Nemesis.default ~seed)) ))
            seeds)
        flags)
    classes

let nemesis_pins =
  [
    ("delay/plain/seed1", "ea676236b621ece3f6b1f13031cd4334");
    ("delay/plain/seed2", "5fcf46d26115de76c21694b896fede8f");
    ("delay/disk/seed1", "cde70e47d8362b85c2a875809f1c5fda");
    ("delay/disk/seed2", "9f40803a2979604026e8c1d7c44fbce4");
    ("delay/oracle/seed1", "df5d665fe611148441315816a87b69a9");
    ("delay/oracle/seed2", "924a3e94d068c4f34aa79343343493a4");
    ("delay/disk+oracle/seed1", "05780170650ad8d22df3436282c62d36");
    ("delay/disk+oracle/seed2", "75ac311936a002866841630651084409");
    ("immediate/plain/seed1", "716acabc443447afb380beb09fe42ebb");
    ("immediate/plain/seed2", "81056c5a60ee432a869daeb2a684cfc5");
    ("immediate/disk/seed1", "f12e257782175f976e665b24da8fc52a");
    ("immediate/disk/seed2", "06837ab8411eb1536bcc12d3a13e5486");
    ("immediate/oracle/seed1", "c0f2fbb89d8671e0ab0a231d00b0d8dd");
    ("immediate/oracle/seed2", "fad1cd8f97eec32c300ae128d7970022");
    ("immediate/disk+oracle/seed1", "4c15611529c66dacc7a2e2f2ae25987c");
    ("immediate/disk+oracle/seed2", "94836fc9fdd785ff772bb0f467ee3f4f");
    ("epoch/plain/seed1", "ab61b6b60061726c7d68ba7808672bd8");
    ("epoch/plain/seed2", "7597d47091ba2f9222327ced963f91d0");
    ("epoch/disk/seed1", "fcd02aa308f61c4078d47e7001dd33f3");
    ("epoch/disk/seed2", "af27428086b990d2706cb98a675d3796");
    ("epoch/oracle/seed1", "fedb885cc519ae8ca8be19b0fa54967c");
    ("epoch/oracle/seed2", "ef5c3c85b97528e09a7ca50a9438ae11");
    ("epoch/disk+oracle/seed1", "5f57cb87e873a7d84d22e516d0538bf9");
    ("epoch/disk+oracle/seed2", "8893e5df3d4154783027c99b544e713a");
    ("mixed/plain/seed1", "d0997f91233a4f04f8db71252d025030");
    ("mixed/plain/seed2", "e644eb72fa9568aa84fcd75fa9a287ce");
    ("mixed/disk/seed1", "5e937e0f720a6b20ff2092573028fe64");
    ("mixed/disk/seed2", "fe6ee0f5c8fa577654a47ee7f3e0834e");
    ("mixed/oracle/seed1", "969eeebd6420ba4a9d9454cf33deda7e");
    ("mixed/oracle/seed2", "c451ec9aa3b69768bc66a5b04e9e3703");
    ("mixed/disk+oracle/seed1", "d73b44e8e17f41c8df9724c790cf19d1");
    ("mixed/disk+oracle/seed2", "15616eb9938f844ada2cc9ea805896e4");
  ]

let test_nemesis_pins () =
  let mismatches =
    List.filter_map
      (fun (name, cfg) ->
        let outcome = Nemesis.execute cfg (Nemesis.generate cfg) in
        let got = digest outcome in
        let want = List.assoc_opt name nemesis_pins in
        if want = Some got then None
        else
          Some
            (Printf.sprintf "%s: pinned %s, got %s (%d violations)" name
               (Option.value want ~default:"-")
               got
               (List.length outcome.Nemesis.violations)))
      nemesis_cases
  in
  if mismatches <> [] then
    Alcotest.failf "nemesis outcomes moved:@.%s" (String.concat "\n" mismatches)

(* --- one simulated run, every observable --- *)

let sim_config =
  {
    Config.default with
    Config.n_sites = 6;
    products =
      Product.mixed ~n_regular:4 ~n_non_regular:2 ~n_epoch:2 ~initial_amount:60;
    drop_probability = 0.02;
    rpc_retry =
      {
        Avdb_net.Rpc.max_attempts = 4;
        base_backoff = Time.of_ms 5.;
        backoff_multiplier = 2.;
        jitter = 0.3;
      };
    sync_interval = Some (Time.of_ms 25.);
    snapshot_interval = Some (Time.of_ms 40.);
    seed = 5;
  }

let sim_run () =
  let cluster = Cluster.create sim_config in
  let engine = Cluster.engine cluster in
  let site i = Cluster.site cluster i in
  let at ms f = ignore (Engine.schedule_at engine ~at:(Time.of_ms ms) f) in
  at 300. (fun () -> Site.crash (site 2));
  at 700. (fun () -> Site.recover (site 2));
  let spec =
    {
      Avdb_workload.Scm.n_sites = sim_config.Config.n_sites;
      items =
        Array.of_list
          (List.map
             (fun p -> (p.Product.name, p.Product.initial_amount))
             sim_config.Config.products);
      maker_increase_pct = 0.2;
      retailer_decrease_pct = 0.1;
      item_skew = 0.;
      maker_weight = 1;
    }
  in
  let wl = Avdb_workload.Scm.create spec ~seed:9 in
  let outcome =
    Runner.run cluster ~nth_update:(Avdb_workload.Scm.generator wl) ~total_updates:400
      ~interval:(Time.of_ms 4.) ~checkpoint_every:50 ()
  in
  Cluster.flush_all_syncs cluster;
  Cluster.snapshot_now cluster;
  (cluster, outcome)

let sim_pins =
  [
    ("trace", "a3f20471a0b2496fe4cf33a338fbe3f3");
    ("spans", "9d11f1cb90669bb5a44ff68183ff24df");
    ("samples", "c1fe8b519875259f2c602f2e4b630cd8");
    ("outcome", "c557114495b3a3526dcdd0bff6422867");
  ]

let test_sim_pins () =
  let cluster, outcome = sim_run () in
  Alcotest.(check bool) "run left trace events, spans and samples" true
    (Trace.length (Cluster.trace cluster) > 0
    && Avdb_obs.Tracer.length (Cluster.tracer cluster) > 0
    && Avdb_obs.Registry.samples (Cluster.registry cluster) <> []);
  let got =
    [
      ("trace", digest (Trace.events (Cluster.trace cluster)));
      ("spans", digest (Avdb_obs.Tracer.spans (Cluster.tracer cluster)));
      ("samples", digest (Avdb_obs.Registry.samples (Cluster.registry cluster)));
      ("outcome", digest outcome);
    ]
  in
  let mismatches =
    List.filter_map
      (fun (name, d) ->
        let want = List.assoc_opt name sim_pins in
        if want = Some d then None
        else
          Some
            (Printf.sprintf "%s: pinned %s, got %s" name
               (Option.value want ~default:"-")
               d))
      got
  in
  if mismatches <> [] then
    Alcotest.failf "sim run moved:@.%s" (String.concat "\n" mismatches)

let suites =
  [
    ( "golden",
      [
        Alcotest.test_case "nemesis outcomes pinned" `Quick test_nemesis_pins;
        Alcotest.test_case "sim run pinned" `Quick test_sim_pins;
      ] );
  ]
