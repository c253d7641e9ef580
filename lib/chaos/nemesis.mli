(** Randomized fault-injection harness ("nemesis").

    From a single integer seed the nemesis derives a schedule of fault
    windows — site crashes with later recovery, link partitions with later
    healing, and message loss / duplication / reordering windows — and
    injects them into a fresh cluster while a mixed Delay-/Immediate-Update
    workload runs. Every window closes before the horizon; the final phase
    heals everything, recovers every down site, drains the system to
    quiescence and checks the whole-system invariants:

    - every submitted operation settled {e exactly} once (a crashed
      incarnation must neither swallow nor double-fire a continuation);
    - 2PC decision agreement across every site's durable protocol log
      (probed periodically {e during} the faults, not just at the end);
    - no transaction left in doubt once every site is up and quiescent;
    - all replicas of every item agree after the sync flush;
    - per-item AV safety: no site sequence of grants/crashes may ever
      {e create} volume;
    - the global AV ledger balances exactly: defined + minted volume equals
      live + consumed volume plus the grant volume measurably lost to
      crash/loss windows (granted minus received — the model's one
      documented leak channel), and that leak is never negative.

    Runs are deterministic: the same [config] and schedule always produce
    the same outcome, so a failing seed is a reproducible bug report. On
    violation the harness can greedily shrink the schedule to a minimal
    failing fault list. *)

type fault =
  | Crash of { site : int; at_ms : float; for_ms : float }
      (** [site] crashes at [at_ms] and recovers at [at_ms +. for_ms]. *)
  | Partition of { a : int; b : int; at_ms : float; for_ms : float }
      (** both directions of the [a]–[b] link cut, healed after [for_ms]. *)
  | Drop of { p : float; at_ms : float; for_ms : float }
      (** global message-loss window at probability [p]. *)
  | Duplicate of { p : float; at_ms : float; for_ms : float }
  | Reorder of { p : float; at_ms : float; for_ms : float }
  | Disk_fault of {
      site : int;
      at_ms : float;
      target : [ `Wal | `Txn ];
      spec : Avdb_store.Disk_fault.spec;
    }
      (** arm [spec] against [site]'s write-ahead log or 2PC protocol log at
          [at_ms]; the fault takes effect at the site's next crash. Only
          generated alongside a crash of the same site (1 ms before it). *)

type config = {
  seed : int;
  n_sites : int;
  n_regular : int;  (** Delay-Update products (AV circulation) *)
  n_non_regular : int;  (** Immediate-Update products (2PC) *)
  n_epoch : int;
      (** epoch-class products (asynchronous epoch-quorum commit). The
          quiescence invariants extend to them: identical sealed prefixes
          on every subscriber ({!Avdb_core.System_checks.sealed_epoch_agreement})
          and zero unsealed intents once the flush loop drains. Default 0,
          which leaves every pre-existing seed's schedule and outcome
          byte-identical. *)
  n_ops : int;  (** workload submissions over the first 90% of the horizon *)
  horizon_ms : float;  (** every fault window closes before this *)
  max_crashes : int;
  max_partitions : int;
  max_net_windows : int;  (** loss/duplication/reordering windows *)
  crash_base : bool;  (** whether site 0 (the base) may crash too *)
  oracle : bool;
      (** record every client operation into an {!Avdb_check.History.t},
          inject replica reads through the fault phase, and add the
          {!Avdb_check.Checker} verdict (linearizability of Immediate
          Updates, session guarantees, model-exact convergence, AV ledger
          cross-checks) to the violations. Off by default — the injected
          reads alter the message traffic, so a given seed's outcome
          differs between oracle and plain runs. *)
  spread : int option;
      (** [Some k]: run on a sharded topology — per-item hashed bases and
          partial replication at [k] sites per item
          ({!Avdb_core.Topology.sharded}). The workload and oracle reads
          stay within each item's interest set. [None] (default): the
          paper's flat topology. *)
  hierarchy : int option;
      (** with [spread]: hierarchical AV circulation fanout
          ([hierarchy_fanout]); ignored on the flat topology. *)
  disk_faults : bool;
      (** attach storage faults (lost fsyncs, bit flips, misdirected block
          writes, lost segments — {!Avdb_store.Disk_fault.spec}) to ~70% of
          generated crashes, damaging the victim's on-disk logs so recovery
          runs the corruption-classification and base-site repair path.
          Autonomous mode only (the local WAL-reconstruction story relies
          on the sync counters the centralized baseline bypasses). The
          invariants adapt: a replica that stays safely quarantined is
          exempt from convergence and in-doubt accounting — corruption may
          cost availability and repair traffic, never consistency. Off by
          default. *)
  domains : int;
      (** shard the system under test over this many OCaml domains
          ([Config.domains]). Site faults are scheduled onto their owning
          shards, network knobs are mirrored into every shard at the same
          virtual instant, the decision-agreement probe runs at the first
          barrier at or after its instant ({!Avdb_core.Cluster.probe_at}),
          and oracle mode records one history per shard and merges them
          ({!Avdb_check.History.merge}). Deterministic for a fixed
          (config, schedule) at any domain count — but a given seed's
          outcome differs between [domains = 1] and [domains > 1]
          (different latency draws). [domains > 1] rejects [disk_faults] (the quarantine
          read guards cross shards mid-run). Default 1. *)
}

val default : seed:int -> config
(** 4 sites, 4 regular + 3 non-regular products, 160 ops over a 3 s
    horizon, up to 4 crashes (base included), 2 partitions and 3 network
    windows. *)

val generate : config -> fault list
(** The deterministic fault schedule for [config.seed]: windows are sorted
    by start time; crash windows never overlap on the same site, partition
    windows never overlap on the same link, network windows never overlap
    with another of the same kind. *)

type stats = {
  applied : int;
  rejected : int;
  crashes : int;
  partitions : int;
  net_windows : int;
  disk_faults : int;  (** storage faults armed by the schedule *)
  in_doubt_recovered : int;  (** participants re-installed from the log *)
  termination_queries : int;  (** cooperative-termination RPCs sent *)
  decision_rebroadcasts : int;  (** recovered-coordinator decision pushes *)
  leaked_av : int;  (** grant volume lost to the documented leak channel *)
  messages_dropped : int;
  oracle_entries : int;  (** history entries the oracle judged (0 when off) *)
  epochs_sealed : int;  (** epochs sealed by their proposers (0 without epoch items) *)
  epoch_takeovers : int;  (** successor sequencers that won a takeover ballot *)
  checksum_failures : int;  (** log frames rejected by CRC at recovery *)
  segments_quarantined : int;  (** log segments discarded at recovery *)
  repairs : int;  (** quarantined items repaired from a donor *)
  repair_bytes : int;  (** wire bytes of repair snapshots fetched *)
  still_quarantined : int;  (** items left safely quarantined at the end *)
}

type outcome = { violations : string list; stats : stats }
(** [violations = []] means every invariant held. *)

val validate : config -> (unit, string) result
(** [Error] when [config] describes no runnable cluster: the
    {!Avdb_core.Config.validate} failures of the cluster it builds, or
    [disk_faults] with [domains > 1]. *)

val execute : config -> fault list -> outcome
(** Build a fresh cluster from [config], inject the schedule over the
    workload, heal + recover everything at the horizon, drain to
    quiescence and evaluate the invariants. Deterministic. Raises
    [Invalid_argument] when {!validate} fails. *)

type report = {
  config : config;
  schedule : fault list;
  outcome : outcome;
  minimal : fault list option;
      (** on failure with shrinking enabled: a locally-minimal sub-schedule
          that still fails (removing any single fault makes it pass) *)
}

val check : ?shrink:bool -> config -> report
(** [generate] + [execute]; when [shrink] (default [true]) and the run
    fails, greedily re-executes with single faults removed to find a
    minimal failing schedule. *)

val passed : report -> bool

val pp_fault : Format.formatter -> fault -> unit
val pp_schedule : Format.formatter -> fault list -> unit
val pp_report : Format.formatter -> report -> unit
