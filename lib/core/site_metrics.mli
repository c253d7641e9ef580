(** Metrics registration for {!Cluster}'s per-shard registries.

    One call per site wires every counter, AV level and network stat the
    site maintains into a {!Avdb_obs.Registry} as sourced gauges and
    attached sketches; one call per registry adds the shard-wide
    aggregate series. Every shard's registry thus has the same
    namespace. *)

val register_site :
  registry:Avdb_obs.Registry.t ->
  engine:Avdb_sim.Engine.t ->
  config:Config.t ->
  topology:Topology.t ->
  net_stats:Avdb_net.Stats.t ->
  resolve:(int -> Site.t option) ->
  Site.t ->
  unit
(** Registers one site's gauges and sketches. [engine] is the site's own
    shard engine (timestamps), [net_stats] the stats of the RPC instance
    the site is served by. [resolve] looks up a peer site by index for
    the per-item ["sync.version_lag"] gauge, which reads the item base's
    sync counter at snapshot time; return [None] for sites a snapshot
    must not touch (another shard's — registries are single-domain) and
    the lag gauge is skipped for that item. *)

val register_aggregates :
  registry:Avdb_obs.Registry.t ->
  tracer:Avdb_obs.Tracer.t ->
  iter_sites:((Site.t -> unit) -> unit) ->
  unit
(** Registers the tracer-retention, registry-footprint and merged
    latency-distribution series over the sites [iter_sites] covers (a
    whole cluster, or one shard). *)
