(** Whole-system invariant checks over a set of sites, behind
    {!Cluster}'s probes and introspection.

    Every function here reads state across sites, so on a cluster with
    several shards they must only be called while the shards are
    quiescent: between runs, or from a {!Cluster.probe_at} hook. *)

val replica_amounts :
  topology:Topology.t -> site:(int -> Site.t) -> item:string -> int list
(** The item's amount at each subscribed site, in site order. *)

val av_sum : topology:Topology.t -> site:(int -> Site.t) -> item:string -> int
(** Σ over the item's subscribers of (available + held) AV. *)

val av_conservation :
  topology:Topology.t -> site:(int -> Site.t) -> item:string -> (unit, string) result
(** Live + consumed − minted must equal defined volume; holds at any
    instant with no grant response in flight. *)

val net_conservation : Avdb_net.Stats.t list -> (unit, string) result
(** received + dropped ≤ sent + duplicated over the {e summed} totals of
    the given stats instances (one per shard in a parallel run:
    cross-shard sends count on the sender's stats and deliver on the
    receiver's). *)

val decision_agreement : iter_sites:((Site.t -> unit) -> unit) -> (unit, string) result
(** Across every site's durable protocol log, each transaction id carries
    at most one outcome. Checkable at any instant. *)

val in_doubt_total : iter_sites:((Site.t -> unit) -> unit) -> int
(** Transactions without a logged outcome, summed over all sites. *)

val sealed_epoch_agreement :
  iter_sites:((Site.t -> unit) -> unit) -> (unit, string) result
(** Across every site's durable protocol log, each (item, epoch) carries
    at most one seal value: any two logs holding a seal for the pair hold
    the exact same intent sequence. Checkable at any instant. *)

val unsealed_intent_total : iter_sites:((Site.t -> unit) -> unit) -> int
(** Epoch-class write intents no logged seal contains yet, summed over
    all sites (quarantined items excluded) — the epoch analogue of
    {!in_doubt_total}, required to reach zero at quiescence. *)

val check_invariants :
  config:Config.t -> topology:Topology.t -> site:(int -> Site.t) -> (unit, string) result
(** Quiescence checks: replica agreement (autonomous mode), AV sum =
    replicated amount, non-negative AV entries; with epoch-class products
    also sealed-prefix agreement and a drained intent backlog. *)
