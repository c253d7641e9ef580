open Avdb_sim

type checkpoint = {
  updates_done : int;
  total_correspondences : int;
  per_site_correspondences : (int * int) list;
  applied : int;
  rejected : int;
  virtual_time : Time.t;
}

type outcome = {
  checkpoints : checkpoint list;
  final : checkpoint;
  results : Update.result list;
}

let snapshot cluster ~updates_done ~applied ~rejected =
  {
    updates_done;
    total_correspondences = Cluster.total_correspondences cluster;
    per_site_correspondences = Cluster.per_site_correspondences cluster;
    applied;
    rejected;
    virtual_time = Cluster.now cluster;
  }

(* Per-shard completion tallies: update continuations fire on the shard
   owning their submission site, so each lane has a single writer. *)
type lane = {
  mutable finished : int;
  mutable applied : int;
  mutable rejected : int;
  mutable rev_results : Update.result list;
}

let run cluster ~nth_update ~total_updates ?(interval = Time.of_ms 10.)
    ?checkpoint_every ?(submit = fun site ~item ~delta k -> Site.submit_update site ~item ~delta k)
    () =
  if total_updates < 0 then invalid_arg "Runner.run: negative total_updates";
  let checkpoint_every =
    match checkpoint_every with
    | Some c when c > 0 -> c
    | Some _ -> invalid_arg "Runner.run: checkpoint_every must be positive"
    | None -> Stdlib.max 1 (total_updates / 10)
  in
  let n_shards = Cluster.n_domains cluster in
  let lanes =
    Array.init n_shards (fun _ -> { finished = 0; applied = 0; rejected = 0; rev_results = [] })
  in
  let rev_checkpoints = ref [] in
  let on_result lane result =
    lane.finished <- lane.finished + 1;
    lane.rev_results <- result :: lane.rev_results;
    if Update.is_applied result then lane.applied <- lane.applied + 1
    else lane.rejected <- lane.rejected + 1;
    (* A checkpoint reads every shard's stats, which is safe mid-run only
       when there is one shard. *)
    if n_shards = 1 && lane.finished mod checkpoint_every = 0 then
      rev_checkpoints :=
        snapshot cluster ~updates_done:lane.finished ~applied:lane.applied
          ~rejected:lane.rejected
        :: !rev_checkpoints
  in
  (* The update stream. One shard draws it lazily, in order, as each
     update fires. Several shards materialise it up front on the calling
     domain (generators are stateful) so that each shard fires only the
     updates of its own sites: [first.(d)] is shard [d]'s first update and
     [next k] the one after [k] on [k]'s shard ([total_updates] when none
     is left). *)
  let nth, first, next =
    if n_shards = 1 then (nth_update, [| 0 |], fun k -> k + 1)
    else begin
      let updates = Array.init total_updates nth_update in
      let first = Array.make n_shards total_updates in
      let after = Array.make total_updates total_updates in
      let last = Array.make n_shards (-1) in
      Array.iteri
        (fun k (site_index, _, _) ->
          let d = Cluster.domain_of_site cluster site_index in
          if last.(d) < 0 then first.(d) <- k else after.(last.(d)) <- k;
          last.(d) <- k)
        updates;
      (Array.get updates, first, Array.get after)
    end
  in
  (* Relative to the current virtual time, so several runs compose on one
     cluster (e.g. add sites between phases). Updates are drip-fed — each
     event schedules its shard's next update at its fixed slot — rather
     than preloaded, so the event queues hold a handful of events instead
     of [total_updates] and every heap operation stays cheap. Update [k]
     fires at start + k * interval on any shard count. *)
  let start = Cluster.now cluster in
  Array.iteri
    (fun d lane ->
      let engine = (Cluster.engines cluster).(d) and on_result = on_result lane in
      let rec arm k =
        if k < total_updates then
          ignore
            (Engine.schedule_at engine
               ~at:(Time.add start (Time.mul interval (float_of_int k)))
               (fun () ->
                 arm_after k;
                 let site_index, item, delta = nth k in
                 submit (Cluster.site cluster site_index) ~item ~delta on_result))
      and arm_after k = arm (next k) in
      arm first.(d))
    lanes;
  Cluster.run cluster;
  let sum f = Array.fold_left (fun acc lane -> acc + f lane) 0 lanes in
  let final =
    snapshot cluster
      ~updates_done:(sum (fun l -> l.finished))
      ~applied:(sum (fun l -> l.applied))
      ~rejected:(sum (fun l -> l.rejected))
  in
  {
    checkpoints = List.rev !rev_checkpoints;
    final;
    results = Array.fold_right (fun l acc -> List.rev_append l.rev_results acc) lanes [];
  }

(* [run] under its former multi-domain name, with a shard-aware [submit].
   Kept only because perfbench/ compiles against it and changes only with
   the benchmark; the next benchmark change moves perfbench onto [run] and
   deletes this. *)
let run_parallel cluster ~nth_update ~total_updates ?interval
    ?(submit = fun ~shard:_ site ~item ~delta k -> Site.submit_update site ~item ~delta k) () =
  run cluster ~nth_update ~total_updates ?interval
    ~submit:(fun site ~item ~delta k ->
      let shard = Cluster.domain_of_site cluster (Avdb_net.Address.to_int (Site.addr site)) in
      submit ~shard site ~item ~delta k)
    ()
