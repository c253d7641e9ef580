(* The simulated system as an array of shards. Each shard is a
   self-contained single-domain world — engine, RPC stack, trace, tracer,
   metrics registry — so no hot-path state is ever shared between
   domains. With one shard [run] is a plain [Engine.run]; with several,
   [Avdb_sim.Parallel] steps the shards in conservative barrier windows.

   The only cross-shard traffic is the lock-free mailbox of routed network
   messages: a send whose destination lives on another shard computes its
   full delivery instant sender-side (latency draw, bandwidth,
   loss/duplication/reordering, FIFO clamp — all against the sender
   shard's link state and RNG) and pushes the envelope into the owner's
   inbox; the owner schedules it while draining at the next barrier. The
   lookahead window equals the latency lower bound, so a routed message
   can never land in the receiver's past. *)

open Avdb_sim
open Avdb_net
module Obs_registry = Avdb_obs.Registry
module Tracer = Avdb_obs.Tracer

type envelope = (Protocol.request, Protocol.response, Protocol.notice) Rpc.envelope

(* A routed message at rest in a mailbox: delivery instant and addresses
   resolved sender-side, re-checked (dst down, partition) at delivery. *)
type xmsg = { x_at : Time.t; x_src : Address.t; x_dst : Address.t; x_env : envelope }

type shard = {
  rank : int;
  shared : Site.shared;  (* the shard's engine, RPC, trace and tracer *)
  registry : Obs_registry.t;
  violations : Obs_registry.counter;
  inbox : xmsg Mailbox.t;
  mutable senders : xmsg Mailbox.sender array;
      (* [senders.(d)]: this shard's push handle into shard [d]'s inbox;
         only touched by the domain currently running this shard *)
  mutable snapshots_armed : bool;
}

type t = {
  config : Config.t;
  topology : Topology.t;
  placement : Placement.t;
  shards : shard array;
  (* Geometric-growth site store, by global index: [add_retailer] appends
     in amortised O(1) instead of copying the whole array per join. *)
  mutable store : Site.t array;
  mutable len : int;
  window : Time.t;
  mutable next_probe : Time.t;
  mutable probes_run : int;
  mutable rounds : int;
  (* [probe_at] hooks waiting for a barrier (several shards only), in
     time order, ties in arrival order *)
  mutable hooks : (Time.t * (unit -> unit)) list;
}

let engine_of sh = sh.shared.Site.engine
let rpc_of sh = sh.shared.Site.rpc
let multi t = Array.length t.shards > 1

let single t name =
  if multi t then invalid_arg ("Cluster." ^ name ^ ": the cluster has several shards");
  t.shards.(0)

let iter_sites t f =
  for i = 0 to t.len - 1 do
    f t.store.(i)
  done

let push_site t site =
  if t.len = Array.length t.store then begin
    let grown = Array.make (Stdlib.max 8 (2 * Array.length t.store)) site in
    Array.blit t.store 0 grown 0 t.len;
    t.store <- grown
  end;
  t.store.(t.len) <- site;
  t.len <- t.len + 1

let domain_of_site t i =
  if i < 0 || i >= t.len then invalid_arg "Cluster.domain_of_site: index out of range";
  if multi t then Placement.domain_of t.placement i else 0

(* Initial AV for one regular product at one of its subscribers, by the
   site's rank among them (base = rank 0, [count] subscribers total). The
   remainder of an uneven split goes to rank 0 so no volume is lost. Under
   full replication rank/count coincide with site index / N, reproducing
   the legacy allocation exactly. *)
let initial_av config ~rank ~count ~initial_amount =
  match config.Config.allocation with
  | Config.All_at_base -> if rank = 0 then initial_amount else 0
  | Config.Even ->
      let share = initial_amount / count in
      if rank = 0 then initial_amount - (share * (count - 1)) else share
  | Config.Retailers_only ->
      if count = 1 then if rank = 0 then initial_amount else 0
      else begin
        let retailers = count - 1 in
        let share = initial_amount / retailers in
        if rank = 0 then 0
        else if rank = 1 then initial_amount - (share * (retailers - 1))
        else share
      end

(* Initial per-site AV ledger: a subscriber's slice of every regular item
   in its interest set. Non-subscribers get no entry at all — their ledger,
   like their stock table, is bounded by the interest set. *)
let av_init_for config topology ~site_index =
  List.filter_map
    (fun product ->
      let item = product.Product.name in
      if Product.is_regular product && Topology.interested topology ~site:site_index ~item
      then
        let count = Topology.subscriber_count topology ~item in
        let rank =
          match Topology.rank topology ~site:site_index ~item with
          | Some r -> r
          | None -> 0 (* unreachable: interested implies ranked *)
        in
        Some
          (item, initial_av config ~rank ~count ~initial_amount:product.Product.initial_amount)
      else None)
    config.Config.products

(* Registers one site's gauges with its own shard's registry. The per-item
   version-lag gauge reads the item base's counter at snapshot time, so a
   peer on another shard is never resolved: registries are single-domain. *)
let register_site_metrics t sh site =
  Site_metrics.register_site ~registry:sh.registry ~engine:(engine_of sh) ~config:t.config
    ~topology:t.topology ~net_stats:(Rpc.stats (rpc_of sh))
    ~resolve:(fun i ->
      if i >= 0 && i < t.len && domain_of_site t i = sh.rank then Some t.store.(i)
      else None)
    site

(* Decorrelate the shard engines' RNG streams; shard 0 keeps the config
   seed. *)
let shard_seed config rank = config.Config.seed lxor (rank * 0x2545F4914F6CDD1D)

let create_shard config topology ~n_domains rank =
  let engine = Engine.create ~seed:(shard_seed config rank) () in
  let tracer =
    Tracer.create ~enabled:config.Config.tracing ~sample_rate:config.Config.trace_sample
      ?slow:config.Config.trace_slow ~seed:config.Config.seed ~id_base:rank
      ~id_stride:n_domains ()
  in
  let rpc =
    Rpc.create ~engine ~latency:config.Config.latency
      ~drop_probability:config.Config.drop_probability
      ~duplicate_probability:config.Config.duplicate_probability
      ~reorder_probability:config.Config.reorder_probability
      ?bandwidth_bytes_per_sec:config.Config.bandwidth_bytes_per_sec
      ~default_timeout:config.Config.rpc_timeout ~request_size:Protocol.wire_size_request
      ~response_size:Protocol.wire_size_response ~notice_size:Protocol.wire_size_notice
      ~tracer ~request_label:Protocol.request_label ()
  in
  let registry = Obs_registry.create ~retention:config.Config.metrics_retention () in
  {
    rank;
    shared =
      {
        Site.engine;
        rpc;
        config;
        topology;
        n_members = config.Config.n_sites;
        trace = Trace.create ();
        tracer;
      };
    registry;
    violations = Obs_registry.counter registry "invariant.violations";
    inbox = Mailbox.create ();
    senders = [||];
    snapshots_armed = false;
  }

(* Cross-shard routing: a send to a site owned elsewhere resolves to a
   push into the owner's inbox. *)
let connect_shards config placement shards =
  Array.iter
    (fun sh ->
      sh.senders <- Array.map (fun peer -> Mailbox.sender peer.inbox ~rank:sh.rank) shards;
      Network.set_remote_route (Rpc.network (rpc_of sh)) (fun dst ->
          let di = Address.to_int dst in
          if di < 0 || di >= config.Config.n_sites then None
          else
            let owner = Placement.domain_of placement di in
            if owner = sh.rank then None
            else
              Some
                (fun ~at ~src env ->
                  Mailbox.push sh.senders.(owner)
                    { x_at = at; x_src = src; x_dst = dst; x_env = env })))
    shards

let create config =
  (match Config.validate config with
  | Ok () -> ()
  | Error e -> invalid_arg ("Cluster.create: " ^ e));
  let items = List.map (fun p -> p.Product.name) config.Config.products in
  let topology = Topology.create config.Config.topology ~n_sites:config.Config.n_sites ~items in
  let placement = Placement.create topology ~n_domains:config.Config.domains ~items in
  let n_domains = Placement.n_domains placement in
  let shards = Array.init n_domains (create_shard config topology ~n_domains) in
  if n_domains > 1 then connect_shards config placement shards;
  (* Sites in global index order: each site draws only from its own
     shard's engine, so per shard this is ascending site order. *)
  let store =
    Array.init config.Config.n_sites (fun site_index ->
        let sh = shards.(Placement.domain_of placement site_index) in
        Site.create sh.shared
          ~addr:(Address.of_int site_index)
          ~av_init:(av_init_for config topology ~site_index))
  in
  let lb = Latency.lower_bound config.Config.latency in
  let t =
    {
      config;
      topology;
      placement;
      shards;
      store;
      len = Array.length store;
      window = (if Time.compare lb Time.zero > 0 then lb else Time.of_ms 1.);
      next_probe = Time.zero;
      probes_run = 0;
      rounds = 0;
      hooks = [];
    }
  in
  Array.iter
    (fun sh ->
      let iter_own f =
        for i = 0 to t.len - 1 do
          if domain_of_site t i = sh.rank then f t.store.(i)
        done
      in
      Site_metrics.register_aggregates ~registry:sh.registry ~tracer:sh.shared.Site.tracer
        ~iter_sites:iter_own;
      iter_own (register_site_metrics t sh))
    shards;
  t

let config t = t.config
let topology t = t.topology
let placement t = t.placement
let n_domains t = Array.length t.shards
let window t = t.window
let sites t = Array.sub t.store 0 t.len

let site t i =
  if i < 0 || i >= t.len then invalid_arg "Cluster.site: index out of range";
  t.store.(i)

let base_site t = t.store.(0)
let base_site_for t ~item = t.store.(Topology.base_index t.topology ~item)
let n_sites t = t.len
let subscribers t ~item = Topology.subscribers t.topology ~item
let interested t ~site ~item = Topology.interested t.topology ~site ~item
let now t = Engine.now (engine_of t.shards.(0))
let rounds t = t.rounds
let probes_run t = t.probes_run
let engine t = engine_of (single t "engine")
let engines t = Array.map engine_of t.shards
let net_stats t = Rpc.stats (rpc_of (single t "net_stats"))
let net_stats_by_shard t = Array.map (fun sh -> Rpc.stats (rpc_of sh)) t.shards
let trace t = (single t "trace").shared.Site.trace
let traces t = Array.map (fun sh -> sh.shared.Site.trace) t.shards

let trace_events ?category ?min_level t =
  Trace.merged_events ?category ?min_level (Array.to_list (traces t))

let tracer t = (single t "tracer").shared.Site.tracer

let spans t =
  match t.shards with
  | [| sh |] -> Tracer.spans sh.shared.Site.tracer
  | shards ->
      Tracer.merged_spans (Array.to_list (Array.map (fun sh -> sh.shared.Site.tracer) shards))

let registry t = (single t "registry").registry

let metric_samples t =
  Obs_registry.merged_samples (Array.to_list (Array.map (fun sh -> sh.registry) t.shards))

let schedule_at_site t ~site ~at f =
  ignore (Engine.schedule_at (engine_of t.shards.(domain_of_site t site)) ~at f)

let replica_amounts t ~item =
  System_checks.replica_amounts ~topology:t.topology ~site:(fun i -> t.store.(i)) ~item

let av_sum t ~item =
  System_checks.av_sum ~topology:t.topology ~site:(fun i -> t.store.(i)) ~item

let av_conservation t ~item =
  System_checks.av_conservation ~topology:t.topology ~site:(fun i -> t.store.(i)) ~item

(* --- invariant probes + periodic snapshots --- *)

let violation t name detail =
  let sh = t.shards.(0) in
  let at = Engine.now (engine_of sh) in
  Obs_registry.inc sh.violations 1;
  Trace.record sh.shared.Site.trace ~at ~level:Trace.Warn ~category:"invariant" detail;
  ignore
    (Tracer.instant sh.shared.Site.tracer ~at ~status:Avdb_obs.Span.Warn
       ~fields:[ ("detail", detail) ]
       ~category:"invariant" name)

(* Reads every shard: runs in the event chain on one shard, and only at
   barriers or between runs on several. *)
let run_probes t =
  t.probes_run <- t.probes_run + 1;
  (* AV conservation is only meaningful between grants: a grant response in
     flight carries volume that is on neither ledger yet. *)
  let pending = Array.fold_left (fun acc sh -> acc + Rpc.pending_calls (rpc_of sh)) 0 t.shards in
  if t.config.Config.mode = Config.Autonomous && pending = 0 then
    List.iter
      (fun product ->
        if Product.is_regular product then
          match av_conservation t ~item:product.Product.name with
          | Ok () -> ()
          | Error msg -> violation t "invariant.av_conservation" msg)
      t.config.Config.products;
  match System_checks.net_conservation (Array.to_list (net_stats_by_shard t)) with
  | Ok () -> ()
  | Error msg -> violation t "invariant.net_conservation" msg

let snapshot_now t =
  run_probes t;
  Array.iter
    (fun sh -> Obs_registry.snapshot sh.registry ~at:(Engine.now (engine_of sh)))
    t.shards

(* One free-running snapshot chain per shard; it parks itself when the
   shard's queue drains so quiescence still terminates [run], which re-arms
   it. On one shard the chain also runs the probes; on several the probes
   read across shards and run at barriers instead (see [run]). *)
let arm_snapshots t sh =
  match t.config.Config.snapshot_interval with
  | None -> ()
  | Some interval ->
      if not sh.snapshots_armed then begin
        sh.snapshots_armed <- true;
        let engine = engine_of sh in
        let rec tick () =
          if multi t then Obs_registry.snapshot sh.registry ~at:(Engine.now engine)
          else snapshot_now t;
          if Engine.pending engine > 0 then ignore (Engine.schedule engine ~delay:interval tick)
          else sh.snapshots_armed <- false
        in
        ignore (Engine.schedule engine ~delay:interval tick)
      end

let probe_at t ~at f =
  if multi t then begin
    let rec insert = function
      | (a, g) :: rest when Time.compare a at <= 0 -> (a, g) :: insert rest
      | rest -> (at, f) :: rest
    in
    t.hooks <- insert t.hooks
  end
  else ignore (Engine.schedule_at (engine_of t.shards.(0)) ~at f)

(* Runs, in order, the hooks due by [upto] (every hook when [None]). *)
let rec run_hooks t ~upto =
  match t.hooks with
  | (a, f) :: rest when Option.fold upto ~none:true ~some:(fun u -> Time.compare a u <= 0) ->
      t.hooks <- rest;
      f ();
      run_hooks t ~upto
  | _ -> ()

let drain sh =
  List.iter
    (fun ((_, _, m) : int * int * xmsg) ->
      Network.deliver_remote (Rpc.network (rpc_of sh)) ~at:m.x_at ~src:m.x_src ~dst:m.x_dst
        m.x_env)
    (Mailbox.drain sh.inbox)

let run ?until t =
  Array.iter (arm_snapshots t) t.shards;
  if not (multi t) then ignore (Engine.run ?until (engine_of t.shards.(0)))
  else begin
    let on_round ~at =
      (match t.config.Config.snapshot_interval with
      | Some interval when Time.compare at t.next_probe >= 0 ->
          run_probes t;
          t.next_probe <- Time.add at interval
      | _ -> ());
      run_hooks t ~upto:(Some at)
    in
    let shards =
      Array.map
        (fun sh -> { Parallel.engine = engine_of sh; drain = (fun () -> drain sh) })
        t.shards
    in
    let stats = Parallel.run ~window:t.window ?until ~on_round shards in
    t.rounds <- stats.Parallel.rounds;
    (* The shards drained before reaching these hooks. *)
    run_hooks t ~upto:until;
    (* Quiescence-time probe pass: the periodic pass only fires when a
       barrier crosses the probe grid, so a run shorter than one window —
       or one with no snapshot interval configured — would otherwise end
       without a single conservation check. *)
    run_probes t
  end

(* A retailer entering the live system (the dynamic cooperation of the
   paper's introduction): declare an interest set to the shared topology,
   register on the network, bootstrap the interest-scoped catalogue locally
   with zero AV, then fetch the current data and sync state from each
   interest item's base. AV arrives on demand through the ordinary
   circulation. The membership event itself is O(interest): a topology
   version bump plus a member-count bump — no address-list copy, no
   broadcast to existing sites. *)
let add_retailer ?interest t callback =
  let sh = single t "add_retailer" in
  let site_index = t.len in
  let items = List.map (fun p -> p.Product.name) t.config.Config.products in
  let interest =
    match interest with
    | Some l -> l
    | None -> Topology.default_joiner_interest t.topology ~site:site_index ~items
  in
  Topology.register_joiner t.topology ~site:site_index ~items:interest;
  sh.shared.Site.n_members <- site_index + 1;
  let addr = Address.of_int site_index in
  let av_init =
    List.filter_map
      (fun product ->
        if
          Product.is_regular product
          && Topology.interested t.topology ~site:site_index ~item:product.Product.name
        then Some (product.Product.name, 0)
        else None)
      t.config.Config.products
  in
  let site = Site.create sh.shared ~addr ~av_init in
  push_site t site;
  register_site_metrics t sh site;
  Site.join site (fun result -> callback (site_index, result));
  site_index

(* --- fault injection: network knobs are sender-side state, so every
   shard's network mirrors them; the [_at] variants install the change
   at the same virtual instant on every shard, which the common window
   grid turns into an atomic cross-shard event. --- *)

let each_net t f = Array.iter (fun sh -> f (Rpc.network (rpc_of sh))) t.shards

let at_each_net t ~at f =
  Array.iter
    (fun sh ->
      ignore (Engine.schedule_at (engine_of sh) ~at (fun () -> f (Rpc.network (rpc_of sh)))))
    t.shards

let cut i j n = Network.partition n (Address.of_int i) (Address.of_int j)
let mend i j n = Network.heal n (Address.of_int i) (Address.of_int j)
let partition t i j = each_net t (cut i j)
let heal t i j = each_net t (mend i j)
let set_drop_probability t p = each_net t (fun n -> Network.set_drop_probability n p)

let set_duplicate_probability t p =
  each_net t (fun n -> Network.set_duplicate_probability n p)

let set_reorder_probability t p = each_net t (fun n -> Network.set_reorder_probability n p)
let partition_at t ~at i j = at_each_net t ~at (cut i j)
let heal_at t ~at i j = at_each_net t ~at (mend i j)

let set_drop_probability_at t ~at p =
  at_each_net t ~at (fun n -> Network.set_drop_probability n p)

let set_duplicate_probability_at t ~at p =
  at_each_net t ~at (fun n -> Network.set_duplicate_probability n p)

let set_reorder_probability_at t ~at p =
  at_each_net t ~at (fun n -> Network.set_reorder_probability n p)

let total_correspondences t =
  Array.fold_left (fun acc s -> acc + Stats.total_correspondences s) 0 (net_stats_by_shard t)

(* A site's sends count on its own shard's stats and its receives on the
   delivering shard's, so per-site rows merge by summing across shards. *)
let per_site_correspondences t =
  let rec merge = function
    | (i, a) :: (j, b) :: rest when i = j -> merge ((i, a + b) :: rest)
    | row :: rest -> row :: merge rest
    | [] -> []
  in
  Array.to_list (net_stats_by_shard t)
  |> List.concat_map (fun stats ->
         List.map (fun (a, s) -> (Address.to_int a, s.Stats.correspondences)) (Stats.sites stats))
  |> List.sort compare |> merge

let live_words_per_site t = List.init t.len (fun i -> (i, Site.live_words t.store.(i)))

let flush_all_syncs t =
  iter_sites t (Site.flush_sync ~force:true);
  iter_sites t Site.flush_epochs;
  run t

let decision_agreement t = System_checks.decision_agreement ~iter_sites:(iter_sites t)
let in_doubt_total t = System_checks.in_doubt_total ~iter_sites:(iter_sites t)

let sealed_epoch_agreement t =
  System_checks.sealed_epoch_agreement ~iter_sites:(iter_sites t)

let unsealed_intent_total t = System_checks.unsealed_intent_total ~iter_sites:(iter_sites t)

let check_invariants t =
  System_checks.check_invariants ~config:t.config ~topology:t.topology ~site:(fun i ->
      t.store.(i))
