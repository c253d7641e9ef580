(** System configuration. *)

(** Which consistency machinery the cluster runs. *)
type mode =
  | Autonomous  (** the paper's proposal: AV + Delay/Immediate Update *)
  | Centralized  (** the baseline: every remote update round-trips to base *)

(** Where the initial AV for regular products lives. *)
type av_allocation =
  | Even  (** split equally across sites (remainder to the base) *)
  | All_at_base
  | Retailers_only  (** split equally across non-base sites *)

type t = {
  n_sites : int;  (** ≥ 1; site 0 is the base (maker) *)
  products : Product.t list;
  mode : mode;
  allocation : av_allocation;
  strategy : Avdb_av.Strategy.t;
  latency : Avdb_net.Latency.t;
  drop_probability : float;
  duplicate_probability : float;
      (** per-message chance the network delivers an extra copy; the RPC
          reply cache and the cumulative sync counters absorb these *)
  reorder_probability : float;
      (** per-message chance of bypassing the per-link FIFO guarantee *)
  bandwidth_bytes_per_sec : int option;
      (** finite per-link bandwidth: messages serialise behind each other
          before the propagation delay; [None] = infinite (default) *)
  rpc_timeout : Avdb_sim.Time.t;
  rpc_retry : Avdb_net.Rpc.retry_policy;
      (** retransmission policy for AV requests, the centralized baseline,
          membership and the 2PC termination protocol; retransmissions
          reuse the request id so servers execute at most once. Default
          {!Avdb_net.Rpc.no_retry} (the paper's single-shot calls). *)
  prepare_timeout : Avdb_sim.Time.t;  (** Immediate Update vote collection *)
  ack_timeout : Avdb_sim.Time.t;  (** Immediate Update decision acks *)
  lock_timeout : Avdb_sim.Time.t;  (** participant lock wait *)
  decision_timeout : Avdb_sim.Time.t;
      (** how long a prepared participant waits for the decision before
          running the termination protocol (query the coordinator, then
          the base and fellow cohort members; presume abort only when
          the coordinator durably reports it never decided) *)
  rebroadcast_interval : Avdb_sim.Time.t;
      (** pacing of a recovered coordinator's decision re-broadcast while
          acks are outstanding. Must be positive. *)
  rebroadcast_rounds : int;
      (** how many re-broadcast rounds a recovered coordinator attempts
          before giving up the push path (≥ 0). Bounded so a permanently
          down participant cannot keep the event queue alive forever; the
          participants' pull-side termination protocol remains the safety
          net. *)
  sync_interval : Avdb_sim.Time.t option;
      (** period of Delay Update's lazy delta broadcast; [None] disables *)
  sync_fanout : int option;
      (** [None] (default): every flush notifies every peer — each peer is
          at most one [sync_interval] behind. [Some k]: each flush
          notifies only [k] peers, rotating round-robin, dividing sync
          messages by roughly [(n-1)/k] at the cost of proportionally
          older replicas. Cumulative versioned counters make the rotation
          safe: whichever flush finally reaches a peer carries everything
          it missed. Convergence flushes ({!Site.flush_sync}
          [~force:true]) always broadcast. Must be ≥ 1 *)
  snapshot_interval : Avdb_sim.Time.t option;
      (** period of the observability snapshot: samples every registered
          metric into the cluster's time series and runs the invariant
          probes (AV conservation, network stats conservation). Must be
          positive; [None] disables (default). Snapshots only fire while
          the event queue is non-empty, so an idle cluster still reaches
          quiescence *)
  record_history : bool;
      (** when true every applied local update also appends a row to a
          ["history"] audit table (item, delta, path) in the same storage
          engine — read with {!Avdb_store.Table.fold} and recovered with
          the WAL like any other table *)
  tracing : bool;
      (** when false the cluster's span tracer runs disabled: hot paths
          skip span construction entirely (near-zero cost) and exporters
          see no spans. Metric gauges and counters still work. Default
          [true]; bench and nemesis runs that attach no exporter turn it
          off. *)
  trace_sample : float;
      (** head-sampling rate in [[0, 1]]: the fraction of root spans (and
          their whole trees) the tracer retains, decided by a pure hash of
          [(seed, root ordinal)] so a seeded run is reproducible at any
          rate. Warn-status spans and spans slower than [trace_slow] are
          always kept regardless. [1.] (default) keeps everything. *)
  trace_slow : Avdb_sim.Time.t option;
      (** spans at least this long are retained even when head sampling
          discarded their tree; [None] (default) disables the slow-span
          override *)
  metrics_retention : int;
      (** how many snapshots of each metric series the registry keeps
          in memory (a per-series ring; ≥ 1, default 512). Bounds registry
          memory at large N: older samples fall off the back. *)
  prefetch_low : int option;
      (** autonomous AV circulation (§3.4, extension): after a Delay
          Update leaves an item's available AV below this watermark, the
          accelerator replenishes in the background up to twice the
          watermark. [None] keeps the paper's purely on-demand scheme. *)
  topology : Topology.spec;
      (** per-item base assignment, replica placement (interest sets) and
          optional hierarchical AV circulation — {!Topology.flat}
          reproduces the paper's single-base fully-replicated setup *)
  segment_frames : int;
      (** how many records each on-disk log segment holds before the
          writer seals it and starts the next (≥ 1, default 64). Smaller
          segments bound the blast radius of a corrupt or lost segment at
          the cost of more header overhead. *)
  epoch_interval : Avdb_sim.Time.t;
      (** epoch-quorum commit progress-pump cadence (must be positive,
          default 5 ms): a site with unsealed intents re-sends them every
          tick, the sequencer debounces epoch closes by one tick, and
          takeover candidacy escalates one rank every few ticks. *)
  epoch_batch : int;
      (** buffered intents that make the sequencer close the open epoch
          immediately instead of waiting for the next tick (≥ 1,
          default 8) — the batching lever of the epoch class. *)
  repair_interval : Avdb_sim.Time.t;
      (** pacing of corruption-repair donor retries and pending-transaction
          watch polls after a storage fault. Must be positive. *)
  domains : int;
      (** how many shards, each on its own OCaml domain, {!Cluster}
          splits the sites into (≥ 1, default 1). With [> 1] the sites
          are placed by {!Placement}, each shard runs its own event
          queue, and shards
          synchronise in conservative barrier-stepped windows derived
          from the latency lower bound — which must therefore be
          positive ({!Avdb_net.Latency.lower_bound}); validation rejects
          e.g. Gaussian latency with [domains > 1]. Same-seed runs are
          deterministic at any domain count. *)
  seed : int;
}

val default : t
(** The paper's §4 setup: 3 sites (1 maker + 2 retailers), 100 regular
    products of initial stock 100 with AV split evenly, paper strategy
    (richest-known selection, half granting), 1 ms constant latency,
    no loss, lazy sync disabled. *)

val validate : t -> (unit, string) result
val pp : Format.formatter -> t -> unit
