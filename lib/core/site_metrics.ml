(* Gauge/sketch registration for one site's counters, into its shard's
   registry. Everything a
   site counts is exposed as gauges sourced from the mutable records the
   hot paths already maintain — registration is the only cost. Per-item
   AV gauges are registered only for the site's interest set, so
   registration stays O(interest), not O(catalogue), per site. *)

open Avdb_sim
open Avdb_net
open Avdb_av
module Obs_registry = Avdb_obs.Registry
module Tracer = Avdb_obs.Tracer

(* [resolve] looks up a peer site by index for gauges that read another
   site's state (the version-lag probe reads the item's base). A shard
   resolves only its own sites — a registry snapshot
   must never read across a domain boundary — so cross-shard lag gauges
   are simply not registered there. *)
let register_site ~registry ~engine ~config ~topology ~net_stats ~resolve site =
  let site_label = Address.to_string (Site.addr site) in
  let labels = [ ("site", site_label) ] in
  let g name f = Obs_registry.gauge registry ~labels name f in
  let m = Site.metrics site in
  let open Update.Metrics in
  g "update.submitted" (fun () -> float_of_int m.submitted);
  g "update.applied_local" (fun () -> float_of_int m.applied_local);
  g "update.applied_transfer" (fun () -> float_of_int m.applied_transfer);
  g "update.applied_immediate" (fun () -> float_of_int m.applied_immediate);
  g "update.applied_central" (fun () -> float_of_int m.applied_central);
  g "update.rejected" (fun () -> float_of_int m.rejected);
  Obs_registry.attach_sketch registry ~labels "update.latency_ms" (fun () -> m.latency);
  Obs_registry.attach_sketch registry ~labels "update.grant_latency_ms" (fun () ->
      m.grant_latency);
  g "av.requests_sent" (fun () -> float_of_int m.av_requests_sent);
  g "av.prefetch_requests" (fun () -> float_of_int m.prefetch_requests);
  g "av.volume_received" (fun () -> float_of_int m.av_volume_received);
  g "av.volume_granted" (fun () -> float_of_int m.av_volume_granted);
  g "av.shortage_rate" (fun () ->
      float_of_int m.av_shortages /. float_of_int (Stdlib.max 1 m.submitted));
  g "av.idle_fraction" (fun () ->
      let avail, total =
        List.fold_left
          (fun (a, tot) (_, available, held) -> (a + available, tot + available + held))
          (0, 0)
          (Av_table.snapshot (Site.av_table site))
      in
      if total = 0 then 1. else float_of_int avail /. float_of_int total);
  g "sync.apply_age_ms" (fun () ->
      let now = Engine.now engine in
      match Site.last_sync_apply site with
      | Some ts -> Time.to_ms (Time.diff now ts)
      | None -> Time.to_ms now);
  g "sync.batches_sent" (fun () -> float_of_int m.sync_batches_sent);
  g "2pc.termination_queries" (fun () -> float_of_int m.termination_queries);
  g "2pc.in_doubt_recovered" (fun () -> float_of_int m.in_doubt_recovered);
  g "2pc.decision_rebroadcasts" (fun () -> float_of_int m.decision_rebroadcasts);
  g "2pc.in_doubt" (fun () -> float_of_int (Avdb_txn.Txn_log.in_flight (Site.txn_log site)));
  g "storage.checksum_failures" (fun () -> float_of_int m.checksum_failures);
  g "storage.segments_quarantined" (fun () -> float_of_int m.segments_quarantined);
  g "storage.repairs" (fun () -> float_of_int m.repairs);
  g "storage.repair_bytes" (fun () -> float_of_int m.repair_bytes);
  g "storage.quarantined_items" (fun () ->
      float_of_int (List.length (Site.quarantined_items site)));
  let s = Stats.site net_stats (Site.addr site) in
  g "net.sent" (fun () -> float_of_int s.Stats.sent);
  g "net.received" (fun () -> float_of_int s.Stats.received);
  g "net.bytes_sent" (fun () -> float_of_int s.Stats.bytes_sent);
  g "net.dropped" (fun () -> float_of_int s.Stats.dropped);
  g "net.duplicated" (fun () -> float_of_int s.Stats.duplicated);
  g "net.reordered" (fun () -> float_of_int s.Stats.reordered);
  g "net.retries" (fun () -> float_of_int s.Stats.retries);
  g "net.correspondences" (fun () -> float_of_int s.Stats.correspondences);
  if config.Config.mode = Config.Autonomous then begin
    let site_index = Address.to_int (Site.addr site) in
    List.iter
      (fun product ->
        if
          Product.is_regular product
          && Topology.interested topology ~site:site_index ~item:product.Product.name
        then begin
          let item = product.Product.name in
          let av = Site.av_table site in
          Obs_registry.gauge registry
            ~labels:(labels @ [ ("item", item) ])
            "av.available"
            (fun () -> float_of_int (Av_table.available av ~item));
          (* Per-item staleness: stamp distance between the item's base
             and this replica, 0 when fully caught up. Only meaningful
             away from the base, and only registrable when the base is
             resolvable (same shard). *)
          let base_ix = Topology.base_index topology ~item in
          if base_ix <> site_index then
            match resolve base_ix with
            | None -> ()
            | Some base ->
                Obs_registry.gauge registry
                  ~labels:(labels @ [ ("item", item) ])
                  "sync.version_lag"
                  (fun () ->
                    float_of_int
                      (Stdlib.max 0
                         (Site.sync_version base ~item
                         - Site.applied_sync_version site ~origin:base_ix ~item)))
        end)
      config.Config.products
  end

(* Cluster-wide (or shard-wide) series: the tracer's retention accounting,
   the registry's own (bounded) footprint, and unlabelled latency
   distributions merged across every covered site's sketch at snapshot
   time — the aggregation story that makes fixed-memory per-site sketches
   worth it. *)
let register_aggregates ~registry ~tracer ~iter_sites =
  let g name f = Obs_registry.gauge registry name f in
  g "tracer.retained" (fun () -> float_of_int (Tracer.length tracer));
  g "tracer.dropped" (fun () -> float_of_int (Tracer.dropped tracer));
  g "tracer.sampled_out" (fun () -> float_of_int (Tracer.sampled_out tracer));
  g "registry.words" (fun () -> float_of_int (Obs_registry.footprint_words registry));
  let merged field () =
    let acc = ref (Avdb_metrics.Sketch.create ()) in
    iter_sites (fun site ->
        acc := Avdb_metrics.Sketch.merge !acc (field (Site.metrics site)));
    !acc
  in
  Obs_registry.attach_sketch registry "update.latency_ms" (merged (fun m ->
      m.Update.Metrics.latency));
  Obs_registry.attach_sketch registry "update.grant_latency_ms" (merged (fun m ->
      m.Update.Metrics.grant_latency))
