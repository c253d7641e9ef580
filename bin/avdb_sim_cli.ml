(* avdb-sim: run one configurable SCM simulation and report the paper's
   metrics (correspondences total and per site, applied/rejected counts,
   latency percentiles).

   Examples:
     dune exec bin/avdb_sim_cli.exe -- --updates 3000
     dune exec bin/avdb_sim_cli.exe -- --mode centralized --updates 3000
     dune exec bin/avdb_sim_cli.exe -- --retailers 4 --granting exact --csv *)

open Cmdliner
open Avdb_core
open Avdb_workload
open Avdb_metrics

let mode_conv =
  let parse = function
    | "autonomous" -> Ok Config.Autonomous
    | "centralized" -> Ok Config.Centralized
    | s -> Error (`Msg (Printf.sprintf "unknown mode %S (autonomous|centralized)" s))
  in
  let print ppf = function
    | Config.Autonomous -> Format.pp_print_string ppf "autonomous"
    | Config.Centralized -> Format.pp_print_string ppf "centralized"
  in
  Arg.conv (parse, print)

let allocation_conv =
  let parse = function
    | "even" -> Ok Config.Even
    | "all-at-base" -> Ok Config.All_at_base
    | "retailers-only" -> Ok Config.Retailers_only
    | s -> Error (`Msg (Printf.sprintf "unknown allocation %S" s))
  in
  let print ppf a =
    Format.pp_print_string ppf
      (match a with
      | Config.Even -> "even"
      | Config.All_at_base -> "all-at-base"
      | Config.Retailers_only -> "retailers-only")
  in
  Arg.conv (parse, print)

let selection_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Avdb_av.Strategy.Selection.of_name s) in
  Arg.conv (parse, fun ppf s -> Format.pp_print_string ppf (Avdb_av.Strategy.Selection.name s))

let granting_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Avdb_av.Strategy.Granting.of_name s) in
  Arg.conv (parse, fun ppf g -> Format.pp_print_string ppf (Avdb_av.Strategy.Granting.name g))

let run retailers items initial updates update_class mode allocation selection granting skew
    maker_weight spread hierarchy domains latency_ms drop dup reorder rpc_retries
    rpc_backoff_ms sync_ms prefetch seed checkpoints csv trace_sample trace_slow_ms
    trace_out metrics_out metrics_wide snapshot_every_ms check mutations =
  let n_sites = retailers + 1 in
  (* --class selects which update class(es) the catalogue exercises:
     delay (the paper's AV path), immediate (2PC), epoch (asynchronous
     epoch-quorum commit) or an even three-way mix. *)
  let products =
    match update_class with
    | `Delay -> Product.catalogue ~n_regular:items ~n_non_regular:0 ~initial_amount:initial
    | `Immediate ->
        Product.catalogue ~n_regular:0 ~n_non_regular:items ~initial_amount:initial
    | `Epoch ->
        Product.mixed ~n_regular:0 ~n_non_regular:0 ~n_epoch:items ~initial_amount:initial
    | `Mixed ->
        let third = items / 3 in
        Product.mixed ~n_regular:(items - (2 * third)) ~n_non_regular:third ~n_epoch:third
          ~initial_amount:initial
  in
  let topology =
    match spread with
    | None -> Topology.flat
    | Some k -> Topology.sharded ~spread:k ?hierarchy_fanout:hierarchy ()
  in
  Mutation.reset ();
  List.iter Mutation.enable mutations;
  if mutations <> [] then
    Printf.eprintf "mutations enabled (test-only fault seeding): %s\n%!"
      (String.concat ", " (List.map Mutation.name mutations));
  (* Metrics output implies snapshots; default cadence 100 ms. *)
  let snapshot_interval =
    match (snapshot_every_ms, metrics_out) with
    | Some ms, _ -> Some (Avdb_sim.Time.of_ms ms)
    | None, Some _ -> Some (Avdb_sim.Time.of_ms 100.)
    | None, None -> None
  in
  let rpc_retry =
    if rpc_retries <= 1 then Avdb_net.Rpc.no_retry
    else
      {
        Avdb_net.Rpc.max_attempts = rpc_retries;
        base_backoff = Avdb_sim.Time.of_ms rpc_backoff_ms;
        backoff_multiplier = 2.;
        jitter = 0.5;
      }
  in
  let config =
    {
      Config.default with
      Config.n_sites;
      mode;
      allocation;
      strategy = { Avdb_av.Strategy.selection; granting };
      products;
      topology;
      latency = Avdb_net.Latency.Constant (Avdb_sim.Time.of_ms latency_ms);
      drop_probability = drop;
      duplicate_probability = dup;
      reorder_probability = reorder;
      rpc_retry;
      sync_interval = Option.map Avdb_sim.Time.of_ms sync_ms;
      snapshot_interval;
      prefetch_low = prefetch;
      domains;
      seed;
      trace_sample;
      trace_slow = Option.map Avdb_sim.Time.of_ms trace_slow_ms;
    }
  in
  let spec =
    {
      (Scm.paper_spec ~n_sites ~n_items:items ~initial_amount:initial ()) with
      (* the workload must target the actual catalogue, whatever the class *)
      Scm.items =
        Array.of_list
          (List.map (fun p -> (p.Product.name, p.Product.initial_amount)) products);
      item_skew = skew;
      maker_weight;
    }
  in
  (* An invalid configuration is a usage error (exit 124), not a crash. *)
  match Config.validate config with
  | Error e -> `Error (false, e)
  | Ok () ->
      let cluster = Cluster.create config in
      let workload =
        match spread with
        | None -> Scm.create spec ~seed
        | Some _ ->
            let subscribers item =
              let topo = Cluster.topology cluster in
              let base = Topology.base_index topo ~item in
              Array.of_list
                (base :: List.filter (fun i -> i <> base) (Cluster.subscribers cluster ~item))
            in
            Scm.create_sharded spec ~subscribers ~seed
      in
      (* --check threads every submission through the oracle's history
         recorder (one per shard, merged at the end); the verdict prints after
         quiescence. *)
      let recorders =
        if not check then None
        else
          Some
            (Array.map
               (fun tr ->
                 let h = Avdb_check.History.create () in
                 ignore (Avdb_check.History.attach_trace h tr);
                 h)
               (Cluster.traces cluster))
      in
      let submit =
        match recorders with
        | None -> fun site ~item ~delta k -> Site.submit_update site ~item ~delta k
        | Some hs ->
            let engines = Cluster.engines cluster in
            fun site ~item ~delta k ->
              let shard =
                Cluster.domain_of_site cluster (Avdb_net.Address.to_int (Site.addr site))
              in
              Avdb_check.History.submit_update hs.(shard) ~engine:engines.(shard) site ~item
                ~delta k
      in
      let outcome =
        Runner.run cluster ~nth_update:(Scm.generator workload) ~total_updates:updates
          ~checkpoint_every:(Stdlib.max 1 (updates / checkpoints)) ~submit ()
      in
      let final = outcome.Runner.final in
      let sharded = Cluster.n_domains cluster > 1 in
      let table =
        Ascii_table.create
          ~headers:([ "updates"; "correspondences" ]
                   @ List.init n_sites (fun i -> Printf.sprintf "site%d" i))
      in
      (* Several shards take no mid-run checkpoints: the table is the final row. *)
      List.iter
        (fun (c : Runner.checkpoint) ->
          Ascii_table.add_int_row table
            (string_of_int c.Runner.updates_done)
            (c.Runner.total_correspondences
            :: List.init n_sites (fun i ->
                   try List.assoc i c.Runner.per_site_correspondences with Not_found -> 0)))
        (if sharded then [ final ] else outcome.Runner.checkpoints);
      if csv then print_endline (Ascii_table.to_csv table)
      else begin
        Format.printf "%a@." Config.pp config;
        if sharded then
          Printf.printf "parallel engine: %d shards, window %.1f ms, %d rounds\n"
            (Cluster.n_domains cluster)
            (Avdb_sim.Time.to_ms (Cluster.window cluster))
            (Cluster.rounds cluster);
        print_endline (Ascii_table.render table);
        Printf.printf "\napplied %d / rejected %d of %d updates\n" final.Runner.applied
          final.Runner.rejected updates;
        Array.iter
          (fun s ->
            let m = Site.metrics s in
            Printf.printf
              "%s: submitted=%d local=%d transfer=%d immediate=%d central=%d rejected=%d \
               av_req=%d p99_latency=%.1fms\n"
              (Avdb_net.Address.to_string (Site.addr s))
              m.Update.Metrics.submitted m.Update.Metrics.applied_local
              m.Update.Metrics.applied_transfer m.Update.Metrics.applied_immediate
              m.Update.Metrics.applied_central m.Update.Metrics.rejected
              m.Update.Metrics.av_requests_sent
              (let h = m.Update.Metrics.latency in
               if Sketch.count h = 0 then 0. else Sketch.percentile h 99.))
          (Cluster.sites cluster);
        if config.Config.mode = Config.Autonomous then begin
          Cluster.flush_all_syncs cluster;
          match Cluster.check_invariants cluster with
          | Ok () -> print_endline "invariants: OK (replicas agree; AV conserved)"
          | Error e -> Printf.printf "invariants: VIOLATED - %s\n" e
        end
      end;
      (* Observability artifacts; a .jsonl suffix selects line-delimited JSON
         over the default Chrome trace / CSV shape. The Chrome and CSV shapes
         render one shard's tracer or registry, so a sharded run always writes
         the merged JSONL. *)
      let module Exporter = Avdb_obs.Exporter in
      let jsonl path = sharded || Filename.check_suffix path ".jsonl" in
      Option.iter
        (fun path ->
          let spans = Cluster.spans cluster in
          let contents =
            if jsonl path then Exporter.spans_jsonl spans
            else Exporter.chrome_trace (Cluster.tracer cluster)
          in
          Exporter.write_file ~path contents;
          Printf.eprintf "wrote %d spans to %s\n%!" (List.length spans) path)
        trace_out;
      Option.iter
        (fun path ->
          if config.Config.snapshot_interval = None then Cluster.snapshot_now cluster;
          let samples = Cluster.metric_samples cluster in
          let contents =
            if jsonl path then Exporter.metrics_jsonl samples
            else
              let wide = if metrics_wide then Some true else None in
              Exporter.metrics_csv ?wide (Cluster.registry cluster)
          in
          Exporter.write_file ~path contents;
          Printf.eprintf "wrote %d metric samples to %s\n%!" (List.length samples) path)
        metrics_out;
      match recorders with
      | None -> `Ok 0
      | Some hs ->
          if config.Config.mode = Config.Autonomous then Cluster.flush_all_syncs cluster;
          let history = Avdb_check.History.merge (Array.to_list hs) in
          let snapshot = Avdb_check.Checker.snapshot_of_cluster cluster in
          let verdict = Avdb_check.Checker.check ~quiescent:true ~history snapshot in
          Format.printf "%a@." Avdb_check.Checker.pp_verdict verdict;
          `Ok (if Avdb_check.Checker.ok verdict then 0 else 1)

let cmd =
  let retailers =
    Arg.(value & opt int 2 & info [ "retailers" ] ~docv:"N" ~doc:"Number of retailer sites.")
  in
  let items =
    Arg.(value & opt int 100 & info [ "items" ] ~docv:"N" ~doc:"Number of regular products.")
  in
  let initial =
    Arg.(value & opt int 100 & info [ "initial" ] ~docv:"N" ~doc:"Initial stock per product.")
  in
  let updates =
    Arg.(value & opt int 3000 & info [ "updates" ] ~docv:"N" ~doc:"Total user updates.")
  in
  let update_class =
    let class_conv =
      Arg.enum
        [ ("delay", `Delay); ("immediate", `Immediate); ("epoch", `Epoch); ("mixed", `Mixed) ]
    in
    Arg.(value & opt class_conv `Delay
        & info [ "class" ] ~docv:"CLASS"
            ~doc:
              "Update class of the catalogue: $(b,delay) (the paper's AV path, default), \
               $(b,immediate) (per-update 2PC), $(b,epoch) (asynchronous epoch-quorum \
               commit) or $(b,mixed) (an even three-way split of $(b,--items)).")
  in
  let mode =
    Arg.(value & opt mode_conv Config.Autonomous
        & info [ "mode" ] ~docv:"MODE" ~doc:"autonomous (proposed) or centralized (baseline).")
  in
  let allocation =
    Arg.(value & opt allocation_conv Config.Even
        & info [ "allocation" ] ~docv:"POLICY" ~doc:"Initial AV allocation: even, all-at-base, retailers-only.")
  in
  let selection =
    Arg.(value & opt selection_conv Avdb_av.Strategy.Selection.Richest_known
        & info [ "selection" ] ~docv:"RULE"
            ~doc:"Donor selection: richest-known, base-first, round-robin, random.")
  in
  let granting =
    Arg.(value & opt granting_conv Avdb_av.Strategy.Granting.Half
        & info [ "granting" ] ~docv:"RULE" ~doc:"Donor granting: half, exact, all, demand+F.")
  in
  let skew =
    Arg.(value & opt float 0. & info [ "skew" ] ~docv:"THETA" ~doc:"Zipf skew over items (0 = uniform).")
  in
  let maker_weight =
    Arg.(value & opt int 1 & info [ "maker-weight" ] ~docv:"N" ~doc:"Maker slots per workload cycle.")
  in
  let spread =
    Arg.(value & opt (some int) None
        & info [ "spread" ] ~docv:"K"
            ~doc:
              "Shard the topology: each item gets a hash-chosen base site and is replicated \
               at only $(docv) sites (partial replication); the workload rotates per item \
               over its subscribers. Default: flat — site 0 bases everything, full \
               replication.")
  in
  let hierarchy =
    Arg.(value & opt (some int) None
        & info [ "hierarchy" ] ~docv:"F"
            ~doc:
              "With --spread: AV requests climb an $(docv)-ary tree over each item's \
               subscribers toward its base instead of flat peer selection.")
  in
  let domains =
    Arg.(value & opt int 1
        & info [ "domains" ] ~docv:"N"
            ~doc:
              "Shard the sites over $(docv) OCaml domains, stepped in conservative \
               barrier windows of one latency lower bound. Deterministic for a given seed \
               at any $(docv). With more than one, the table shows only the final row and \
               artifacts are written as merged JSONL.")
  in
  let latency_ms =
    Arg.(value & opt float 1. & info [ "latency-ms" ] ~docv:"MS" ~doc:"Constant link latency.")
  in
  let drop =
    Arg.(value & opt float 0. & info [ "drop" ] ~docv:"P" ~doc:"Message drop probability.")
  in
  let dup =
    Arg.(value & opt float 0.
        & info [ "dup" ] ~docv:"P" ~doc:"Message duplication probability.")
  in
  let reorder =
    Arg.(value & opt float 0.
        & info [ "reorder" ] ~docv:"P"
            ~doc:"Probability a message bypasses per-link FIFO ordering.")
  in
  let rpc_retries =
    Arg.(value & opt int 1
        & info [ "rpc-retries" ] ~docv:"N"
            ~doc:"Max RPC attempts per call (1 = no retransmission).")
  in
  let rpc_backoff_ms =
    Arg.(value & opt float 25.
        & info [ "rpc-backoff-ms" ] ~docv:"MS"
            ~doc:"Base retransmission backoff; doubles per attempt with jitter.")
  in
  let sync_ms =
    Arg.(value & opt (some float) None
        & info [ "sync-ms" ] ~docv:"MS" ~doc:"Lazy-propagation flush interval (off if absent).")
  in
  let prefetch =
    Arg.(value & opt (some int) None
        & info [ "prefetch" ] ~docv:"N"
            ~doc:"Background AV refill watermark (off if absent).")
  in
  let seed = Arg.(value & opt int 2000 & info [ "seed" ] ~docv:"N" ~doc:"Simulation seed.") in
  let checkpoints =
    Arg.(value & opt int 10 & info [ "checkpoints" ] ~docv:"N" ~doc:"Number of progress rows.")
  in
  let csv = Arg.(value & flag & info [ "csv" ] ~doc:"Emit the checkpoint table as CSV.") in
  let trace_sample =
    Arg.(value & opt float 1.
        & info [ "trace-sample" ] ~docv:"P"
            ~doc:
              "Head-sample traced operation trees at rate $(docv) in [0,1]: each root span \
               (and its whole subtree) is kept with probability $(docv), decided \
               deterministically from the seed. Warn-status spans and spans slower than \
               $(b,--trace-slow-ms) are retained regardless.")
  in
  let trace_slow_ms =
    Arg.(value & opt (some float) None
        & info [ "trace-slow-ms" ] ~docv:"MS"
            ~doc:
              "Tail-retention threshold: spans lasting at least $(docv) survive sampling \
               even in sampled-out trees.")
  in
  let metrics_wide =
    Arg.(value & flag
        & info [ "metrics-wide" ]
            ~doc:
              "Force the wide (one column per series) CSV shape for $(b,--metrics-out) \
               regardless of series count. Default: wide up to 256 series, long format \
               (time_ms,name,labels,value) above.")
  in
  let trace_out =
    Arg.(value & opt (some string) None
        & info [ "trace-out" ] ~docv:"FILE"
            ~doc:
              "Write the causal span trace to $(docv): Chrome trace_event JSON (open in \
               chrome://tracing or Perfetto), or span-per-line JSONL if $(docv) ends in \
               .jsonl.")
  in
  let metrics_out =
    Arg.(value & opt (some string) None
        & info [ "metrics-out" ] ~docv:"FILE"
            ~doc:
              "Write the metric time series to $(docv): wide CSV (one row per snapshot), or \
               sample-per-line JSONL if $(docv) ends in .jsonl. Enables periodic snapshots \
               (default every 100 ms) if $(b,--snapshot-every-ms) is not given.")
  in
  let snapshot_every_ms =
    Arg.(value & opt (some float) None
        & info [ "snapshot-every-ms" ] ~docv:"MS"
            ~doc:
              "Sample every registered metric and run the invariant probes every $(docv) of \
               virtual time.")
  in
  let check =
    Arg.(value & flag
        & info [ "check" ]
            ~doc:
              "Record every submission into a client-visible history and run the \
               consistency oracle at quiescence: linearizability of Immediate/Central \
               updates, model-exact convergence of Delay Updates and AV-ledger \
               cross-checks. Exit 1 on any violation.")
  in
  let mutation_conv =
    let parse s = Result.map_error (fun e -> `Msg e) (Mutation.of_name s) in
    Arg.conv (parse, fun ppf m -> Format.pp_print_string ppf (Mutation.name m))
  in
  let mutations =
    Arg.(value & opt (list mutation_conv) []
        & info [ "mutate" ] ~docv:"NAME,..."
            ~doc:
              "Enable test-only seeded faults (known-bad behaviors) so the oracle has \
               something to convict: lossy-sync, double-deposit, unilateral-abort, \
               stale-reads, forget-own-writes, epoch-double-seal, epoch-drop-intent. \
               Pair with $(b,--check).")
  in
  let term =
    Term.(
      ret
        (const run $ retailers $ items $ initial $ updates $ update_class $ mode $ allocation
        $ selection $ granting $ skew $ maker_weight $ spread $ hierarchy $ domains $ latency_ms
        $ drop $ dup $ reorder $ rpc_retries $ rpc_backoff_ms $ sync_ms $ prefetch $ seed
        $ checkpoints $ csv $ trace_sample $ trace_slow_ms $ trace_out $ metrics_out
        $ metrics_wide $ snapshot_every_ms $ check $ mutations))
  in
  Cmd.v
    (Cmd.info "avdb-sim" ~version:"1.0.0"
       ~doc:
         "Simulate the autonomous-consistency distributed database (Hanamura, Kaji & Mori, \
          IPPS 2000) on the paper's SCM workload.")
    term

let () = exit (Cmd.eval' cmd)
