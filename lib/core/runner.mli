(** Experiment driver: feeds a stream of user updates into a cluster and
    snapshots the paper's metrics at fixed completion counts.

    Update [k] is submitted at virtual time [k × interval] at the site the
    workload names; completions are asynchronous. Checkpoints are taken
    when the number of {e finished} updates crosses each multiple of
    [checkpoint_every], which is exactly the x-axis of Fig. 6 / the column
    headers of Table 1. *)

type checkpoint = {
  updates_done : int;
  total_correspondences : int;
  per_site_correspondences : (int * int) list;
  applied : int;
  rejected : int;
  virtual_time : Avdb_sim.Time.t;
}

type outcome = {
  checkpoints : checkpoint list;  (** in increasing [updates_done] order *)
  final : checkpoint;
  results : Update.result list;  (** per update, in completion order *)
}

val run :
  Cluster.t ->
  nth_update:(int -> int * string * int) ->
  total_updates:int ->
  ?interval:Avdb_sim.Time.t ->
  ?checkpoint_every:int ->
  ?submit:(Site.t -> item:string -> delta:int -> (Update.result -> unit) -> unit) ->
  unit ->
  outcome
(** [nth_update k] returns [(site_index, item, delta)] for the k-th update
    (0-based). [interval] defaults to 10 ms, [checkpoint_every] to
    [max 1 (total_updates / 10)]. Runs the cluster to quiescence.

    On one shard [nth_update] is called as each update fires and
    [results] is in completion order. On several shards, update [k] still
    fires at [start + k × interval] but on the shard owning its site;
    [nth_update] is called for every update on the calling domain before
    the shards start (workload generators are stateful); [checkpoints] is
    empty (a mid-run checkpoint would read cross-shard stats from running
    domains); and [results] holds each shard's results in completion
    order, shards in rank order.

    [submit] defaults to {!Site.submit_update}; passing a wrapper lets a
    caller observe every submission and its completion without the runner
    depending on the observer (the consistency oracle's history recorder
    plugs in here). The wrapper must eventually call the continuation it
    is given exactly as the site reports it. On several shards it runs on
    the site's shard and must only touch that shard's state. *)

val run_parallel :
  Cluster.t ->
  nth_update:(int -> int * string * int) ->
  total_updates:int ->
  ?interval:Avdb_sim.Time.t ->
  ?submit:
    (shard:int ->
    Site.t ->
    item:string ->
    delta:int ->
    (Update.result -> unit) ->
    unit) ->
  unit ->
  outcome
(** {!run} under its former multi-domain name; [submit] also receives the
    owning shard of the submission site. Kept only because perfbench/
    compiles against it; the next benchmark change deletes it. *)
