(** Builds and owns a whole simulated system (Fig. 2): site 0 as the base
    (maker) plus retailers, with the product catalogue replicated to every
    local database "initially from the base" and the initial AV
    distributed per the configured allocation.

    {b Shards.} The sites are split into [config.domains] shards (clamped
    to the site count) by {!Placement}. Each shard owns a complete
    single-domain stack — engine, RPC, trace, tracer, metrics registry —
    and the only cross-shard traffic is a lock-free mailbox of routed
    network messages. With one shard (the default) {!run} is a plain
    {!Avdb_sim.Engine.run}. With several, {!run} executes the shards on
    as many OCaml domains with {!Avdb_sim.Parallel}, in conservative
    barrier-stepped windows of one latency lower bound, and the mailboxes
    are drained at the barriers.

    {b Determinism.} Shard seeds, the window grid and the rank-ordered
    mailbox drain are pure functions of (config, topology): a same-seed
    run yields byte-identical state and exports at any real-time
    interleaving of the domains. Shard 0 keeps the config seed.

    {b Threading contract.} Everything in this interface must be called
    with the shards quiescent — before the first {!run}, between runs, or
    from a {!probe_at} hook. Only the event handlers the shards execute
    (and the closures scheduled with {!schedule_at_site}) run on other
    domains, and each may touch only its own shard's sites and state.

    The single-shard accessors ({!engine}, {!net_stats}, {!trace},
    {!tracer}, {!registry}) and {!add_retailer} raise [Invalid_argument]
    on a cluster with several shards. *)

type t

val create : Config.t -> t
(** Raises [Invalid_argument] if {!Config.validate} fails. *)

val config : t -> Config.t

val topology : t -> Topology.t
(** The resolved shared topology: per-item bases, interest sets, AV
    hierarchy. *)

val placement : t -> Placement.t

val n_domains : t -> int
(** The shard count after clamping. *)

val window : t -> Avdb_sim.Time.t
(** The lookahead window of a multi-shard run (the latency lower
    bound). *)

val sites : t -> Site.t array
(** A copy of the current membership, in site order. *)

val site : t -> int -> Site.t
val base_site : t -> Site.t
(** Site 0 — the base of every item under the legacy flat topology. Under
    per-item sharding prefer {!base_site_for}. *)

val base_site_for : t -> item:string -> Site.t
(** The item's base (primary) site under the configured topology. *)

val n_sites : t -> int
val domain_of_site : t -> int -> int

val subscribers : t -> item:string -> int list
(** Sorted indices of the sites replicating the item (base included);
    every site under full replication. *)

val interested : t -> site:int -> item:string -> bool

val now : t -> Avdb_sim.Time.t
(** The common virtual clock (all shard clocks are aligned whenever the
    shards are quiescent). *)

val run : ?until:Avdb_sim.Time.t -> t -> unit
(** Drains the event queues (bounded by [until] if given). On one shard
    the periodic snapshot ([snapshot_interval]) runs {!snapshot_now} in
    the event chain. On several, each shard samples its own registry in
    its event chain, the invariant probes run at barriers on the same
    cadence, and every run ends with one more probe pass. *)

val probe_at : t -> at:Avdb_sim.Time.t -> (unit -> unit) -> unit
(** Runs [f] at virtual time [at] at a point where every shard may be
    read. On one shard it is an ordinary event at [at]. On several it runs
    at the first barrier at or after [at], or at the end of the {!run}
    that drains before reaching it. *)

val rounds : t -> int
(** Windows executed by the last multi-shard {!run} (0 on one shard). *)

val probes_run : t -> int
(** Invariant-probe passes executed so far. *)

val schedule_at_site : t -> site:int -> at:Avdb_sim.Time.t -> (unit -> unit) -> unit
(** Schedules a closure on the shard owning [site] at virtual time [at];
    it must only touch that shard's state. *)

val engine : t -> Avdb_sim.Engine.t
(** Single-shard only. *)

val engines : t -> Avdb_sim.Engine.t array
(** Per-shard engines in rank order. Scheduling on shard [r]'s engine is
    safe only from that shard's own event handlers, or with the shards
    quiescent. *)

val net_stats : t -> Avdb_net.Stats.t
(** Single-shard only. *)

val net_stats_by_shard : t -> Avdb_net.Stats.t array
(** Per-shard network stats. A site's sends count on its own shard and
    its deliveries on the receiving shard. *)

val trace : t -> Avdb_sim.Trace.t
(** Single-shard only: the structured trace; sites record AV transfers
    ("av"), Immediate Update decisions ("2pc") and crash/recovery
    ("fault"). *)

val traces : t -> Avdb_sim.Trace.t array

val trace_events :
  ?category:string -> ?min_level:Avdb_sim.Trace.level -> t -> Avdb_sim.Trace.event list
(** All shards' trace events merged by timestamp (stable by shard). *)

(** {2 Observability} *)

val tracer : t -> Avdb_obs.Tracer.t
(** Single-shard only: the causal span collector — update roots
    ("update"), AV acquisition and grants ("av"), RPC call/serve pairs
    linked across the wire ("rpc"), 2PC phases ("2pc"), lazy sync
    ("sync"), faults ("fault"), invariant violations ("invariant").
    Export with {!Avdb_obs.Exporter}. *)

val spans : t -> Avdb_obs.Span.t list
(** Every shard's retained spans: on one shard in creation order, on
    several merged by [(start, id)] — byte-stable across same-seed runs
    thanks to per-shard id striding. *)

val registry : t -> Avdb_obs.Registry.t
(** Single-shard only: the unified metrics registry — every site's update
    counters, AV flow volumes and per-item AV levels, plus per-site
    network stats — sampled by {!snapshot_now} or the periodic snapshot
    when [snapshot_interval] is configured. *)

val metric_samples : t -> Avdb_obs.Registry.sample list
(** Every shard's registry samples, merged chronologically. *)

val snapshot_now : t -> unit
(** Runs the invariant probes (AV conservation per regular item — skipped
    while grant responses are in flight — and network stats conservation),
    recording any violation as a Warn span, a Warn trace event and a bump
    of the ["invariant.violations"] counter on shard 0; then appends one
    sample of every registered metric at the current sim-time. *)

val total_correspondences : t -> int
(** Sum of per-site RPC correspondences (the paper's metric). *)

val per_site_correspondences : t -> (int * int) list
(** [(site_index, correspondences)], sorted. *)

val live_words_per_site : t -> (int * int) list
(** [(site_index, {!Site.live_words})] for every site — the scale bench's
    per-site footprint probe. *)

val flush_all_syncs : t -> unit
(** Forces every site to broadcast its pending Delay Update deltas and
    pump its epoch-class state ({!Site.flush_epochs}), then drains the
    network — afterwards (absent message loss or down sites) replicas
    agree. The epoch pump keeps the event queue alive while any live
    site still holds unsealed intents, so the drain doubles as the epoch
    convergence wait. *)

val add_retailer :
  ?interest:string list -> t -> (int * (unit, Update.reason) result -> unit) -> int
(** Single-shard only. Adds a retailer to the {e live} system: declares
    its interest set to the shared topology, registers it on the network,
    bootstraps its local database from the (interest-scoped) catalogue
    with zero AV, and asynchronously fetches current data and sync state
    from each interest item's base ({!Site.join}). Returns the new site
    index immediately; the callback fires with the join outcome once the
    snapshot round-trips complete (run the cluster). The newcomer
    acquires AV on demand through ordinary circulation. [interest]
    defaults to {!Topology.default_joiner_interest} (the whole catalogue
    under full replication). The membership event is O(|interest|): no
    address-list copy, no broadcast to existing sites, amortised O(1)
    appends. *)

(** {2 Fault injection}

    Network knobs are sender-side state: each call mirrors the change
    into every shard's network. The immediate variants apply now; the
    [_at] variants install the change at one virtual instant on every
    shard, for fault schedules armed before a run. Crash or recover a
    site by scheduling {!Site.crash} / {!Site.recover} with
    {!schedule_at_site}. *)

val partition : t -> int -> int -> unit
(** Cuts both directions between two sites (by index). *)

val heal : t -> int -> int -> unit

val set_drop_probability : t -> float -> unit
(** Change the per-message loss rate mid-run; scripted fault scenarios use
    these to open and close a lossy window. *)

val set_duplicate_probability : t -> float -> unit
val set_reorder_probability : t -> float -> unit
val partition_at : t -> at:Avdb_sim.Time.t -> int -> int -> unit
val heal_at : t -> at:Avdb_sim.Time.t -> int -> int -> unit
val set_drop_probability_at : t -> at:Avdb_sim.Time.t -> float -> unit
val set_duplicate_probability_at : t -> at:Avdb_sim.Time.t -> float -> unit
val set_reorder_probability_at : t -> at:Avdb_sim.Time.t -> float -> unit

(** {2 Whole-system introspection for invariant checks} *)

val replica_amounts : t -> item:string -> int list
(** The item's amount at each {e subscribed} site, in site order — every
    site under full replication. *)

val av_sum : t -> item:string -> int
(** Σ over the item's subscribers of (available + held) AV. At quiescence
    with no in-flight grants this equals the item's globally-agreed amount
    when the initial AV equals the initial stock. *)

val av_conservation : t -> item:string -> (unit, string) result
(** Σ over sites of live AV (available + held) plus consumed volume, minus
    locally minted volume, must equal the initially defined volume. Grants
    move volume between sites without changing the sum, so — unlike replica
    agreement — this holds even before convergence, as long as no grant
    response is currently in flight or was permanently lost. *)

val decision_agreement : t -> (unit, string) result
(** Across every site's durable protocol log, each transaction id carries
    at most one outcome — a txid both committed somewhere and aborted
    somewhere else is a 2PC safety violation. Outcomes are logged before
    they are acted on, so this holds at {e every} instant, including
    mid-fault — no quiescence required. *)

val in_doubt_total : t -> int
(** Transactions without a logged outcome, summed over all sites' protocol
    logs. Zero at true quiescence with every site up. *)

val sealed_epoch_agreement : t -> (unit, string) result
(** Across every site's durable protocol log, each (item, epoch) carries
    at most one seal value ({!System_checks.sealed_epoch_agreement}).
    Holds at every instant, including mid-fault. *)

val unsealed_intent_total : t -> int
(** Epoch-class intents no seal contains yet, summed over all sites
    (quarantined items excluded). Zero at true quiescence with every
    subscriber quorum reachable. *)

val check_invariants : t -> (unit, string) result
(** At quiescence after {!flush_all_syncs} (no crashes, no message loss):
    for every regular item, all replicas agree (autonomous mode — in
    centralized mode only the base copy is authoritative) and the AV sum
    equals the replicated amount; AV entries are non-negative. *)
