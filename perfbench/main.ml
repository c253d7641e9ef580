(* avdb benchmark: fixed traffic mixes driven through the public API.

   Every number is taken from outside the libraries: wall time around the
   calls this file makes (Cluster/Pcluster.create, Runner.run/run_parallel
   and their ~submit hook, Site.crash/recover, flush, Checker) and the
   public counters the libraries expose. The program's own tracer stays off
   (Config.tracing = false) in every run; the "traced" run records the
   benchmark's own spans around those calls. See README.md. *)

open Avdb_sim
open Avdb_core
open Avdb_workload
module Stats = Avdb_net.Stats
module History = Avdb_check.History
module Checker = Avdb_check.Checker

(* ------------------------------------------------------------------ *)
(* clocks and small statistics                                          *)

external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now_ns () = Int64.to_int (clock_ns ())
let secs ns = float_of_int ns /. 1e9

let sorted_floats xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile of a sorted array. *)
let rank_pct a q =
  let n = Array.length a in
  if n = 0 then 0.
  else a.(Stdlib.min (n - 1) (Stdlib.max 0 (int_of_float (ceil (q *. float_of_int n)) - 1)))

(* Median with interpolation between the two middle values. *)
let median xs =
  let a = sorted_floats xs in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den

(* ------------------------------------------------------------------ *)
(* workloads                                                            *)

type workload = {
  name : string;
  n_sites : int;
  products : Product.t list;  (* catalogue, in Config order *)
  scm_items : Product.t array;  (* the Scm item array: Zipf rank order *)
  skew : float;
  per_vs : int;  (* submissions per virtual second: the open-loop rate *)
  n_updates : int;  (* submissions per repetition *)
  input_sets : int;
      (* independent input sets derived from the seed; repetitions cycle
         through them and the exact metrics pool them, which averages out
         per-input variation without making one repetition longer *)
  domains : int;
  faults : bool;  (* fault schedule + History recording + Checker verdict *)
}

let initial_amount = 100_000

(* The paper's SCM mix keeps its shape (the base produces, retailers
   consume at half the base's maximum step) with deltas scaled to the
   large initial stock, so a long skewed run neither drains a hot item nor
   lets every update commit locally. *)
let maker_increase_pct = 0.02
let retailer_decrease_pct = 0.01

(* Round-robin merge of the class lists, so a Zipf rank order puts hot
   ranks in every class. *)
let interleave lists =
  let arrays = List.map Array.of_list lists in
  let longest = List.fold_left (fun m a -> Stdlib.max m (Array.length a)) 0 arrays in
  Array.of_list
    (List.concat
       (List.init longest (fun i ->
            List.filter_map (fun a -> if i < Array.length a then Some a.(i) else None) arrays)))

let of_class products k = List.filter (fun p -> p.Product.kind = k) products

let mixed ~delay ~immediate ~epoch =
  let products =
    Product.mixed ~n_regular:delay ~n_non_regular:immediate ~n_epoch:epoch ~initial_amount
  in
  let scm_items =
    interleave
      [
        of_class products Product.Regular;
        of_class products Product.Non_regular;
        of_class products Product.Epoch;
      ]
  in
  (products, scm_items)

let workloads =
  let scm_delay =
    let products, scm_items = mixed ~delay:200 ~immediate:0 ~epoch:0 in
    {
      name = "scm-delay";
      n_sites = 100;
      products;
      scm_items;
      skew = 0.9;
      per_vs = 10_000;
      n_updates = 50_000;
      input_sets = 4;
      domains = 1;
      faults = false;
    }
  in
  let classes =
    let products, scm_items = mixed ~delay:100 ~immediate:100 ~epoch:100 in
    {
      name = "classes-n1000";
      n_sites = 1000;
      products;
      scm_items;
      skew = 0.9;
      per_vs = 10_000;
      n_updates = 20_000;
      input_sets = 1;
      domains = 1;
      faults = false;
    }
  in
  let faults =
    let products, scm_items = mixed ~delay:40 ~immediate:200 ~epoch:40 in
    {
      name = "faults-oracle";
      n_sites = 20;
      products;
      scm_items;
      skew = 0.;
      per_vs = 2_000;
      n_updates = 3_000;
      input_sets = 4;
      domains = 1;
      faults = true;
    }
  in
  [ scm_delay; classes; faults; { scm_delay with name = "scm-delay-2dom"; domains = 2 } ]

(* The seed of input set [k]: distinct for every (seed, k) with k < 1009. *)
let derive seed k = (seed * 1009) + k

let interval w = Time.of_ms (1000. /. float_of_int w.per_vs)
let horizon_ms w = float_of_int w.n_updates *. 1000. /. float_of_int w.per_vs

let config_of w ~seed =
  {
    Config.default with
    Config.n_sites = w.n_sites;
    products = w.products;
    allocation = Config.Even;
    tracing = false;
    topology = Topology.sharded ~spread:3 ();
    sync_interval = Some (Time.of_ms 50.);
    (* continuous link delays, so virtual latencies are not quantized *)
    latency = Avdb_net.Latency.Uniform (Time.of_ms 0.5, Time.of_ms 1.5);
    rpc_retry = (if w.faults then Avdb_net.Rpc.default_retry else Config.default.Config.rpc_retry);
    domains = w.domains;
    seed;
  }

(* ------------------------------------------------------------------ *)
(* inputs: generated from the seed before any timed set-up              *)

type fault_action =
  | Crash of int
  | Recover of int
  | Cut of int * int
  | Heal of int * int
  | Drop of float
  | Dup of float

type read = { r_at : Time.t; r_site : int; r_item : string; r_auth : bool }

type inputs = {
  u_site : int array;
  u_item : string array;
  u_delta : int array;
  u_kind : Product.kind array;
  faults : (Time.t * fault_action) array;  (* sorted by time *)
  reads : read array;
}

(* At least ten crash/recover cycles (one per slot, so windows never
   overlap), one partition, one loss window and one duplication window;
   every window closes before 90% of the horizon. Only victims, offsets
   and durations vary with the seed, so runs of different seeds carry
   comparable fault load. *)
let fault_schedule rng ~n_sites ~horizon_ms =
  let events = ref [] in
  let add ms a = events := (ms, a) :: !events in
  let n_crash = 12 in
  let slot = 0.8 *. horizon_ms /. float_of_int n_crash in
  for i = 0 to n_crash - 1 do
    let at = (0.05 *. horizon_ms) +. (float_of_int i *. slot) +. Rng.float_in rng 0. (0.3 *. slot) in
    let dur = Rng.float_in rng (0.25 *. slot) (0.5 *. slot) in
    let s = Rng.int rng n_sites in
    add at (Crash s);
    add (at +. dur) (Recover s)
  done;
  let a = Rng.int rng n_sites in
  let b = (a + 1 + Rng.int rng (n_sites - 1)) mod n_sites in
  let window start = (start *. horizon_ms) +. Rng.float_in rng 0. (0.02 *. horizon_ms) in
  let len = 0.05 *. horizon_ms in
  let p = window 0.3 in
  add p (Cut (a, b));
  add (p +. len) (Heal (a, b));
  let d = window 0.45 in
  add d (Drop 0.05);
  add (d +. len) (Drop 0.);
  let u = window 0.6 in
  add u (Dup 0.05);
  add (u +. len) (Dup 0.);
  List.stable_sort (fun (x, _) (y, _) -> compare x y) (List.rev !events)
  |> List.map (fun (ms, a) -> (Time.of_ms ms, a))
  |> Array.of_list

let make_inputs w ~seed =
  let topology =
    Topology.create (Topology.sharded ~spread:3 ()) ~n_sites:w.n_sites
      ~items:(List.map (fun p -> p.Product.name) w.products)
  in
  let subscribers item =
    let base = Topology.base_index topology ~item in
    Array.of_list
      (base :: List.filter (fun i -> i <> base) (Topology.subscribers topology ~item))
  in
  let spec =
    {
      Scm.n_sites = w.n_sites;
      items = Array.map (fun p -> (p.Product.name, p.Product.initial_amount)) w.scm_items;
      maker_increase_pct;
      retailer_decrease_pct;
      item_skew = w.skew;
      maker_weight = 1;
    }
  in
  let scm = Scm.create_sharded spec ~subscribers ~seed in
  let kind_of = Hashtbl.create 512 in
  List.iter (fun p -> Hashtbl.replace kind_of p.Product.name p.Product.kind) w.products;
  let n = w.n_updates in
  let updates = Array.init n (Scm.nth scm) in
  let faults, reads =
    if not w.faults then ([||], [||])
    else begin
      let horizon_ms = horizon_ms w in
      let faults = fault_schedule (Rng.create (seed lxor 0xfa17)) ~n_sites:w.n_sites ~horizon_ms in
      (* a quarter as many reads as updates: two thirds local replica
         reads at a subscriber (session checks), one third authoritative
         base reads (linearizability) *)
      let rng = Rng.create (seed lxor 0x0ace5) in
      let items = Array.of_list w.products in
      let reads =
        Array.init (n / 4) (fun _ ->
            let ms = Rng.float_in rng (0.05 *. horizon_ms) (0.95 *. horizon_ms) in
            let item = (Rng.pick rng items).Product.name in
            let auth = Rng.int rng 3 = 0 in
            let site = if auth then Rng.int rng w.n_sites else Rng.pick rng (subscribers item) in
            { r_at = Time.of_ms ms; r_site = site; r_item = item; r_auth = auth })
      in
      Array.stable_sort (fun a b -> Time.compare a.r_at b.r_at) reads;
      (faults, reads)
    end
  in
  {
    u_site = Array.map (fun u -> u.Scm.site_index) updates;
    u_item = Array.map (fun u -> u.Scm.item) updates;
    u_delta = Array.map (fun u -> u.Scm.delta) updates;
    u_kind = Array.map (fun u -> Hashtbl.find kind_of u.Scm.item) updates;
    faults;
    reads;
  }

(* ------------------------------------------------------------------ *)
(* the system under test, sequential or sharded, behind one record      *)

type system = {
  sites : Site.t array;
  net : unit -> Stats.t list;
  engines : unit -> Engine.t list;
  flush : unit -> unit;
  invariants : unit -> (unit, string) result;
  decisions : unit -> (unit, string) result;
  seals : unit -> (unit, string) result;
  in_doubt : unit -> int;
  unsealed : unit -> int;
  snapshot : unit -> Checker.snapshot;
  correspondences : unit -> int;
  rounds : unit -> int;
  cross_items : int;
  now : unit -> Time.t;
}

let of_cluster c =
  {
    sites = Cluster.sites c;
    net = (fun () -> [ Cluster.net_stats c ]);
    engines = (fun () -> [ Cluster.engine c ]);
    flush = (fun () -> Cluster.flush_all_syncs c);
    invariants = (fun () -> Cluster.check_invariants c);
    decisions = (fun () -> Cluster.decision_agreement c);
    seals = (fun () -> Cluster.sealed_epoch_agreement c);
    in_doubt = (fun () -> Cluster.in_doubt_total c);
    unsealed = (fun () -> Cluster.unsealed_intent_total c);
    snapshot = (fun () -> Checker.snapshot_of_cluster c);
    correspondences = (fun () -> Cluster.total_correspondences c);
    rounds = (fun () -> 0);
    cross_items = 0;
    now = (fun () -> Engine.now (Cluster.engine c));
  }

let of_pcluster pc =
  {
    sites = Pcluster.sites pc;
    net = (fun () -> Array.to_list (Pcluster.net_stats pc));
    engines = (fun () -> Array.to_list (Pcluster.engines pc));
    flush = (fun () -> Pcluster.flush_all_syncs pc);
    invariants = (fun () -> Pcluster.check_invariants pc);
    decisions = (fun () -> Pcluster.decision_agreement pc);
    seals = (fun () -> Pcluster.sealed_epoch_agreement pc);
    in_doubt = (fun () -> Pcluster.in_doubt_total pc);
    unsealed = (fun () -> Pcluster.unsealed_intent_total pc);
    snapshot = (fun () -> Checker.snapshot_of_pcluster pc);
    correspondences = (fun () -> Pcluster.total_correspondences pc);
    rounds = (fun () -> Pcluster.rounds pc);
    cross_items = Placement.cross_items (Pcluster.placement pc);
    now = (fun () -> Pcluster.now pc);
  }

(* ------------------------------------------------------------------ *)
(* the benchmark's own spans                                            *)

(* Span kinds. Roots: create, run, flush, verdict. Children of run:
   submit, crash, recover (plus one completion instant per submission).
   Children of verdict: snapshot, invariants, check. *)
type kind =
  | K_create
  | K_run
  | K_submit
  | K_crash
  | K_recover
  | K_flush
  | K_verdict
  | K_snapshot
  | K_invariants
  | K_check

let kind_name = function
  | K_create -> "create"
  | K_run -> "run"
  | K_submit -> "submit"
  | K_crash -> "crash"
  | K_recover -> "recover"
  | K_flush -> "flush"
  | K_verdict -> "verdict"
  | K_snapshot -> "snapshot"
  | K_invariants -> "invariants"
  | K_check -> "check"

let parent_of = function
  | K_submit | K_crash | K_recover -> Some K_run
  | K_snapshot | K_invariants | K_check -> Some K_verdict
  | K_create | K_run | K_flush | K_verdict -> None

let all_kinds =
  [
    K_create; K_run; K_submit; K_crash; K_recover; K_flush; K_verdict; K_snapshot; K_invariants; K_check;
  ]

type span = { kind : kind; lane : int; start : int; stop : int }

(* Submission spans live in preallocated arrays indexed by update id, so
   recording one allocates nothing; each slot has a single writer (the
   domain that owns the submitting site). *)
type trace = {
  sub_start : int array;
  sub_stop : int array;
  sub_words : float array;
  sub_lane : int array;
  done_at : int array;  (* completion instant, wall ns *)
  done_latency_us : int array;  (* the outcome's virtual latency *)
  mutable others : span list;
}

let trace_create n =
  {
    sub_start = Array.make n 0;
    sub_stop = Array.make n 0;
    sub_words = Array.make n 0.;
    sub_lane = Array.make n 0;
    done_at = Array.make n 0;
    done_latency_us = Array.make n 0;
    others = [];
  }

let spans_of tr =
  let subs =
    List.init (Array.length tr.sub_start) (fun i ->
        { kind = K_submit; lane = tr.sub_lane.(i); start = tr.sub_start.(i); stop = tr.sub_stop.(i) })
  in
  List.rev_append tr.others subs

(* ------------------------------------------------------------------ *)
(* one repetition                                                        *)

type verdict_times = { snap_ns : int; inv_ns : int; check_ns : int; total_ns : int }

type rep = {
  set : int;  (* which input set *)
  traced : bool;
  scale : float;
      (* nominal / this repetition's median reference time: multiplies a
         raw wall-clock figure into a calibrated one *)
  setup_s : float;  (* median of this repetition's create calls *)
  run_s : float;
  flush_s : float;
  verdict : verdict_times;  (* medians over the repeated verdict calls *)
  submitted : int;
  by_class : (Product.kind * int) list;  (* submissions per item class *)
  applied : int;
  rejected : int;
  unanswered : int;
  multi : int;
  latencies_ms : float array;  (* applied updates, sorted, virtual ms *)
  msgs : int;
  bytes : int;
  corr : int;
  dropped : int;
  retries : int;
  events : int;
  minor_words : float;
  major_collections : int;
  heap_top_words : int;
  sums : (string * int) list;  (* summed per-site counters *)
  live_words_mean : float;
  send_imbalance : float;
  grant_ms_sum : float;
  grant_count : int;
  rounds : int;
  virtual_s : float;
  cross_items : int;
  checker : Checker.stats option;
  recover_wall_ms : float list;
  recover_to_commit_ms : float list;
  flush_calls : int;
  failures : string list;
  spans : span list;  (* traced repetitions only *)
  trace : trace option;
}

let metric_sums sites =
  let fields =
    [
      ("submitted", fun m -> m.Update.Metrics.submitted);
      ("applied_local", fun m -> m.Update.Metrics.applied_local);
      ("applied_transfer", fun m -> m.Update.Metrics.applied_transfer);
      ("applied_immediate", fun m -> m.Update.Metrics.applied_immediate);
      ("applied_epoch", fun m -> m.Update.Metrics.applied_epoch);
      ("rejected", fun m -> m.Update.Metrics.rejected);
      ("av_requests_sent", fun m -> m.Update.Metrics.av_requests_sent);
      ("av_shortages", fun m -> m.Update.Metrics.av_shortages);
      ("sync_batches_sent", fun m -> m.Update.Metrics.sync_batches_sent);
      ("termination_queries", fun m -> m.Update.Metrics.termination_queries);
      ("in_doubt_recovered", fun m -> m.Update.Metrics.in_doubt_recovered);
      ("epochs_sealed", fun m -> m.Update.Metrics.epochs_sealed);
      ("epoch_intents_resent", fun m -> m.Update.Metrics.epoch_intents_resent);
      ("epoch_takeovers", fun m -> m.Update.Metrics.epoch_takeovers);
    ]
  in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 sites in
  List.map (fun (name, f) -> (name, sum (fun s -> f (Site.metrics s)))) fields
  @ [
      ("wal_records", sum (fun s -> Avdb_store.Wal.length (Avdb_store.Database.wal (Site.database s))));
      ("txn_log_records", sum (fun s -> Avdb_txn.Txn_log.length (Site.txn_log s)));
      ("txn_committed", sum (fun s -> Avdb_txn.Txn_log.committed (Site.txn_log s)));
      ("txn_aborted", sum (fun s -> Avdb_txn.Txn_log.aborted (Site.txn_log s)));
    ]

(* Calls [f] until at least [min_ns] of wall time has passed (once at
   least); returns the first call's result and every call's timings. *)
let repeat_timed ~min_ns f =
  let t0 = now_ns () in
  let rec go acc first =
    let r, times = f () in
    let first = match first with None -> Some r | s -> s in
    let acc = times :: acc in
    if now_ns () - t0 >= min_ns then (Option.get first, acc)
    else go acc first
  in
  go [] None

let median_int xs = int_of_float (median (List.map float_of_int xs))

(* A fixed allocation-heavy loop over the standard library only: hash
   table churn and short-lived lists, the same kind of memory traffic the
   simulator makes. On a shared host such code slows down in phases that
   last seconds to minutes while a pure integer loop stays flat, so every
   repetition times this reference around its own phases and the
   wall-clock metrics are rescaled by it (see [scale]). *)
let reference_ns () =
  let t0 = now_ns () in
  let h = Hashtbl.create 16 in
  let x = ref 7 in
  for i = 1 to 100_000 do
    x := ((!x * 25214903917) + 11) land 0xFFFFFF;
    Hashtbl.replace h (!x land 0xFFFF) (i, !x, [ i ]);
    ignore (Sys.opaque_identity (Hashtbl.find_opt h ((!x lsr 3) land 0xFFFF)))
  done;
  let l = ref [] in
  for i = 1 to 300_000 do
    l := (i, !x) :: (if i mod 1000 = 0 then [] else !l)
  done;
  ignore (Sys.opaque_identity !l);
  now_ns () - t0

(* The reference's nominal duration: a calibrated wall-clock figure is the
   raw one scaled as if the reference had taken exactly this long. *)
let reference_nominal_ns = 50_000_000.

let run_rep w inp ~set ~seed ~traced =
  let ref_before = reference_ns () in
  Gc.full_major ();
  let n = Array.length inp.u_site in
  let config = config_of w ~seed in
  let tr = if traced then Some (trace_create n) else None in
  let add_span kind lane start stop =
    match tr with
    | Some t -> t.others <- { kind; lane; start; stop } :: t.others
    | None -> ()
  in
  (* per-submission answer bookkeeping, written by the continuation *)
  let answers = Array.make n 0 and lat_us = Array.make n 0 and ok = Bytes.make n '\000' in
  let record i (r : Update.result) =
    answers.(i) <- answers.(i) + 1;
    lat_us.(i) <- Time.to_us r.Update.latency;
    if Update.is_applied r then Bytes.unsafe_set ok i '\001';
    match tr with
    | Some t ->
        t.done_at.(i) <- now_ns ();
        t.done_latency_us.(i) <- lat_us.(i)
    | None -> ()
  in
  let wrap ~lane i call =
    match tr with
    | None -> call ()
    | Some t ->
        let s0 = now_ns () in
        let w0 = Gc.minor_words () in
        call ();
        let w1 = Gc.minor_words () in
        let s1 = now_ns () in
        t.sub_start.(i) <- s0;
        t.sub_stop.(i) <- s1;
        t.sub_words.(i) <- w1 -. w0;
        t.sub_lane.(i) <- lane
  in
  let history = if w.faults then Some (History.create ()) else None in
  let recover_log = ref [] and recover_wall = ref [] in
  let nth k = (inp.u_site.(k), inp.u_item.(k), inp.u_delta.(k)) in
  let create_ns = ref 0 in
  let t0 = now_ns () in
  let sys, run =
    if w.domains = 1 then begin
      let c = Cluster.create config in
      let engine = Cluster.engine c in
      let t1 = now_ns () in
      create_ns := t1 - t0;
      add_span K_create 0 t0 t1;
      (match history with
      | Some h -> ignore (History.attach_trace h (Cluster.trace c))
      | None -> ());
      let timed kind f =
        let a = now_ns () in
        f ();
        add_span kind 0 a (now_ns ());
        now_ns () - a
      in
      Array.iter
        (fun (at, action) ->
          ignore
            (Engine.schedule_at engine ~at (fun () ->
                 match action with
                 | Crash s ->
                     let site = Cluster.site c s in
                     if not (Site.is_down site) then ignore (timed K_crash (fun () -> Site.crash site))
                 | Recover s ->
                     let site = Cluster.site c s in
                     if Site.is_down site then begin
                       let ns = timed K_recover (fun () -> Site.recover site) in
                       recover_wall := (float_of_int ns /. 1e6) :: !recover_wall;
                       recover_log := (s, Engine.now engine) :: !recover_log
                     end
                 | Cut (a, b) -> Cluster.partition c a b
                 | Heal (a, b) -> Cluster.heal c a b
                 | Drop p -> Cluster.set_drop_probability c p
                 | Dup p -> Cluster.set_duplicate_probability c p)))
        inp.faults;
      (match history with
      | None -> ()
      | Some h ->
          Array.iter
            (fun r ->
              ignore
                (Engine.schedule_at engine ~at:r.r_at (fun () ->
                     let site = Cluster.site c r.r_site in
                     if not (Site.is_down site) then
                       if r.r_auth then
                         History.read_authoritative h ~engine site ~item:r.r_item (fun _ -> ())
                       else ignore (History.read_local h ~engine site ~item:r.r_item))))
            inp.reads);
      let next = ref 0 in
      let submit site ~item ~delta k =
        let i = !next in
        incr next;
        let k r =
          record i r;
          k r
        in
        wrap ~lane:0 i (fun () ->
            match history with
            | Some h -> History.submit_update h ~engine site ~item ~delta k
            | None -> Site.submit_update site ~item ~delta k)
      in
      let run () =
        Runner.run c ~nth_update:nth ~total_updates:n ~interval:(interval w) ~checkpoint_every:n
          ~submit ()
      in
      (of_cluster c, run)
    end
    else begin
      let pc = Pcluster.create config in
      let t1 = now_ns () in
      create_ns := t1 - t0;
      add_span K_create 0 t0 t1;
      (* update k runs on the shard owning its site, in increasing k *)
      let shards = Pcluster.n_domains pc in
      let ids = Array.make shards [] in
      for k = n - 1 downto 0 do
        let d = Pcluster.domain_of_site pc inp.u_site.(k) in
        ids.(d) <- k :: ids.(d)
      done;
      let ids = Array.map Array.of_list ids in
      let next = Array.make shards 0 in
      let submit ~shard site ~item ~delta k =
        let i = ids.(shard).(next.(shard)) in
        next.(shard) <- next.(shard) + 1;
        let k r =
          record i r;
          k r
        in
        wrap ~lane:shard i (fun () -> Site.submit_update site ~item ~delta k)
      in
      let run () =
        Runner.run_parallel pc ~nth_update:nth ~total_updates:n ~interval:(interval w) ~submit ()
      in
      (of_pcluster pc, run)
    end
  in
  let events0 = List.fold_left (fun a e -> a + Engine.events_executed e) 0 (sys.engines ()) in
  let q_start = Gc.quick_stat () in
  let w_start = Gc.minor_words () in
  let t2 = now_ns () in
  let outcome = run () in
  let t3 = now_ns () in
  let w_end = Gc.minor_words () in
  let q_end = Gc.quick_stat () in
  let ref_mid = reference_ns () in
  (* the workload's heap peak, before the verdict allocates its own *)
  let heap_top_words = q_end.Gc.top_heap_words in
  add_span K_run 0 t2 t3;
  let events = List.fold_left (fun a e -> a + Engine.events_executed e) 0 (sys.engines ()) - events0 in
  let virtual_s = Time.to_sec (sys.now ()) in
  (* flush to quiescence: one pass normally; under faults, repeat while a
     backlog remains (bounded, like the nemesis drain) *)
  let f0 = now_ns () in
  sys.flush ();
  let flush_calls = ref 1 in
  while
    !flush_calls < 40
    && (sys.unsealed () > 0 || sys.in_doubt () > 0 || Result.is_error (sys.invariants ()))
  do
    incr flush_calls;
    sys.flush ()
  done;
  let f1 = now_ns () in
  add_span K_flush 0 f0 f1;
  (* the verdict: read-only, so it is repeated for a steady timing *)
  let verdict_once () =
    let a = now_ns () in
    let snap = sys.snapshot () in
    let b = now_ns () in
    let inv =
      [
        ("check_invariants", sys.invariants ());
        ("decision_agreement", sys.decisions ());
        ("sealed_epoch_agreement", sys.seals ());
      ]
    in
    let in_doubt = sys.in_doubt () and unsealed = sys.unsealed () in
    let c = now_ns () in
    let v =
      match history with
      | Some h -> Some (Checker.check ~quiescent:true ~history:h snap)
      | None -> None
    in
    let d = now_ns () in
    ((inv, in_doubt, unsealed, v), (a, b, c, d))
  in
  (* each timed phase starts from a collected heap, so it does not pay
     the previous phase's garbage *)
  Gc.full_major ();
  let (inv, in_doubt, unsealed, verdict), times = repeat_timed ~min_ns:200_000_000 verdict_once in
  (match List.rev times with
  | (a, b, c, d) :: _ ->
      add_span K_verdict 0 a d;
      add_span K_snapshot 0 a b;
      add_span K_invariants 0 b c;
      if history <> None then add_span K_check 0 c d
  | [] -> ());
  let verdict_times =
    {
      snap_ns = median_int (List.map (fun (a, b, _, _) -> b - a) times);
      inv_ns = median_int (List.map (fun (_, b, c, _) -> c - b) times);
      check_ns = median_int (List.map (fun (_, _, c, d) -> d - c) times);
      total_ns = median_int (List.map (fun (a, _, _, d) -> d - a) times);
    }
  in
  (* --- correctness --- *)
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let unanswered = ref 0 and multi = ref 0 and applied = ref 0 and rejected = ref 0 in
  Array.iteri
    (fun i a ->
      if a = 0 then incr unanswered
      else if a > 1 then incr multi
      else if Bytes.get ok i = '\001' then incr applied
      else incr rejected)
    answers;
  if !unanswered > 0 then fail "%d submissions never answered" !unanswered;
  if !multi > 0 then fail "%d submissions answered more than once" !multi;
  if !applied + !rejected <> n then
    fail "applied %d + rejected %d <> submitted %d" !applied !rejected n;
  let fin = outcome.Runner.final in
  if fin.Runner.applied <> !applied || fin.Runner.rejected <> !rejected then
    fail "runner counted applied %d rejected %d, continuations %d/%d" fin.Runner.applied
      fin.Runner.rejected !applied !rejected;
  List.iter (fun (name, r) -> match r with Ok () -> () | Error e -> fail "%s: %s" name e) inv;
  if in_doubt <> 0 then fail "in_doubt_total = %d" in_doubt;
  if unsealed <> 0 then fail "unsealed_intent_total = %d" unsealed;
  (match verdict with
  | None -> ()
  | Some v ->
      if not (Checker.ok v) then
        List.iteri
          (fun i viol ->
            if i < 5 then fail "oracle: %s" (Format.asprintf "@[<h>%a@]" Checker.pp_violation viol))
          v.Checker.violations;
      let skipped = v.Checker.stats.Checker.lin_skipped in
      if skipped <> [] then fail "checker skipped %d items (> max_lin_ops)" (List.length skipped));
  (* --- measurements --- *)
  let lat = ref [] in
  Array.iteri
    (fun i us ->
      if answers.(i) = 1 && Bytes.get ok i = '\001' then lat := (float_of_int us /. 1000.) :: !lat)
    lat_us;
  let nets = sys.net () in
  let per_site_sent = Hashtbl.create 64 in
  let bytes = ref 0 in
  List.iter
    (fun st ->
      List.iter
        (fun (addr, (s : Stats.site)) ->
          bytes := !bytes + s.Stats.bytes_sent;
          Hashtbl.replace per_site_sent addr
            (s.Stats.sent + Option.value ~default:0 (Hashtbl.find_opt per_site_sent addr)))
        (Stats.sites st))
    nets;
  let msgs = List.fold_left (fun a st -> a + Stats.total_sent st) 0 nets in
  let max_sent = Hashtbl.fold (fun _ v m -> Stdlib.max v m) per_site_sent 0 in
  let mean_sent = float_of_int msgs /. float_of_int w.n_sites in
  let grant_ms_sum, grant_count =
    Array.fold_left
      (fun (s, c) site ->
        let g = (Site.metrics site).Update.Metrics.grant_latency in
        (s +. Avdb_metrics.Sketch.sum g, c + Avdb_metrics.Sketch.count g))
      (0., 0) sys.sites
  in
  (* recovery to first commit: virtual time from each recovery to the
     completion of the recovered site's first applied update submitted
     after it *)
  let interval_us = Time.to_us (interval w) in
  let recover_to_commit =
    List.filter_map
      (fun (s, at) ->
        let at_us = Time.to_us at in
        let first = ref None in
        let k = ref (at_us / interval_us) in
        while !first = None && !k < n do
          if
            inp.u_site.(!k) = s
            && !k * interval_us >= at_us
            && answers.(!k) = 1
            && Bytes.get ok !k = '\001'
          then first := Some (float_of_int ((!k * interval_us) + lat_us.(!k) - at_us) /. 1000.);
          incr k
        done;
        !first)
      (List.rev !recover_log)
  in
  (* more set-up samples: throwaway systems built after the measured one,
     so they never share its heap peak *)
  let setups = ref [ !create_ns ] in
  while List.length !setups < 3 || List.fold_left ( + ) 0 !setups < 100_000_000 do
    Gc.full_major ();
    let a = now_ns () in
    if w.domains = 1 then ignore (Sys.opaque_identity (Cluster.create config))
    else ignore (Sys.opaque_identity (Pcluster.create config));
    setups := (now_ns () - a) :: !setups
  done;
  let ref_after = reference_ns () in
  let live_words_mean =
    if traced then
      float_of_int (Array.fold_left (fun a s -> a + Site.live_words s) 0 sys.sites)
      /. float_of_int w.n_sites
    else 0.
  in
  {
    set;
    traced;
    scale =
      reference_nominal_ns /. median (List.map float_of_int [ ref_before; ref_mid; ref_after ]);
    setup_s = secs (median_int !setups);
    run_s = secs (t3 - t2);
    flush_s = secs (f1 - f0);
    verdict = verdict_times;
    submitted = n;
    by_class =
      List.map
        (fun k -> (k, Array.fold_left (fun a k' -> if k' = k then a + 1 else a) 0 inp.u_kind))
        [ Product.Regular; Product.Non_regular; Product.Epoch ];
    applied = !applied;
    rejected = !rejected;
    unanswered = !unanswered;
    multi = !multi;
    latencies_ms = sorted_floats !lat;
    msgs;
    bytes = !bytes;
    corr = sys.correspondences ();
    dropped = List.fold_left (fun a st -> a + Stats.total_dropped st) 0 nets;
    retries = List.fold_left (fun a st -> a + Stats.total_retries st) 0 nets;
    events;
    (* quick_stat also counts the domains a parallel run joined *)
    minor_words =
      (if w.domains = 1 then w_end -. w_start
       else q_end.Gc.minor_words -. q_start.Gc.minor_words);
    major_collections = q_end.Gc.major_collections - q_start.Gc.major_collections;
    heap_top_words;
    sums = metric_sums sys.sites;
    live_words_mean;
    send_imbalance = (if mean_sent = 0. then 0. else float_of_int max_sent /. mean_sent);
    grant_ms_sum;
    grant_count;
    rounds = sys.rounds ();
    virtual_s;
    cross_items = sys.cross_items;
    checker = Option.map (fun v -> v.Checker.stats) verdict;
    recover_wall_ms = List.rev !recover_wall;
    recover_to_commit_ms = recover_to_commit;
    flush_calls = !flush_calls;
    failures = List.rev !failures;
    spans = (match tr with Some t -> spans_of t | None -> []);
    trace = tr;
  }

(* ------------------------------------------------------------------ *)
(* determinism: quantities that must repeat exactly for one seed         *)

let sum_of r name = List.assoc name r.sums
let p999 r = rank_pct r.latencies_ms 0.999

let fingerprint r =
  let checker =
    match r.checker with
    | None -> []
    | Some s ->
        [
          ("checker.lin_ops", string_of_int s.Checker.n_lin_ops);
          ("checker.reads_skipped", string_of_int s.Checker.n_reads_skipped);
          ("checker.entries", string_of_int s.Checker.n_entries);
        ]
  in
  [
    ("applied", string_of_int r.applied);
    ("rejected", string_of_int r.rejected);
    ("latency_sum_ms", Printf.sprintf "%.3f" (Array.fold_left ( +. ) 0. r.latencies_ms));
    ("latency_p999_ms", Printf.sprintf "%.3f" (p999 r));
    ("msgs", string_of_int r.msgs);
    ("bytes", string_of_int r.bytes);
    ("corr", string_of_int r.corr);
    ("events", string_of_int r.events);
    ("rounds", string_of_int r.rounds);
    ("flush_calls", string_of_int r.flush_calls);
    ("dropped", string_of_int r.dropped);
    ("retries", string_of_int r.retries);
    ( "recover_to_commit_ms",
      String.concat "," (List.map (Printf.sprintf "%.3f") r.recover_to_commit_ms) );
  ]
  @ List.map (fun (k, v) -> (k, string_of_int v)) r.sums
  @ checker

(* Allocation repeats on one domain up to a few words per run (the warm-up
   repetition also pays lazy initialisation, and traced repetitions add
   the benchmark's own span bookkeeping, so only timed untraced ones
   compare). *)
let minor_words_failures ~domains reps =
  let per_update =
    List.filter_map
      (fun r -> if r.traced then None else Some (r.minor_words /. float_of_int r.submitted))
      reps
  in
  match per_update with
  | x :: _ when domains = 1 ->
      let lo = List.fold_left Float.min x per_update and hi = List.fold_left Float.max x per_update in
      if hi -. lo > 0.01 then
        [ Printf.sprintf "nondeterminism: gc.minor_words_per_update ranged %.4f..%.4f" lo hi ]
      else []
  | _ -> []

let determinism_failures_of_set ~domains reps =
  match reps with
  | [] -> []
  | first :: rest ->
      let ref_fp = fingerprint first in
      List.concat_map
        (fun r ->
          List.filter_map
            (fun (k, v) ->
              match List.assoc_opt k ref_fp with
              | Some v0 when v0 <> v ->
                  Some (Printf.sprintf "nondeterminism: %s was %s, then %s" k v0 v)
              | _ -> None)
            (fingerprint r))
        rest
      @ minor_words_failures ~domains rest

let determinism_failures ~domains ~sets reps =
  List.concat
    (List.init sets (fun k ->
         determinism_failures_of_set ~domains (List.filter (fun r -> r.set = k) reps)))

(* The warm-up repetitions of every input set, merged into one record:
   counts add up and latency samples pool. The heap peak stays the first
   repetition's, the one a fresh process reaches. *)
let pool = function
  | [] -> invalid_arg "pool"
  | first :: _ as firsts ->
      let add f = List.fold_left (fun a r -> a + f r) 0 firsts in
      let addf f = List.fold_left (fun a r -> a +. f r) 0. firsts in
      let checker =
        match List.filter_map (fun r -> r.checker) firsts with
        | [] -> None
        | c :: _ as cs ->
            let sum f = List.fold_left (fun a s -> a + f s) 0 cs in
            Some
              {
                c with
                Checker.n_entries = sum (fun s -> s.Checker.n_entries);
                n_lin_ops = sum (fun s -> s.Checker.n_lin_ops);
                lin_skipped = List.concat_map (fun s -> s.Checker.lin_skipped) cs;
                n_replica_reads = sum (fun s -> s.Checker.n_replica_reads);
                n_reads_skipped = sum (fun s -> s.Checker.n_reads_skipped);
              }
      in
      {
        first with
        submitted = add (fun r -> r.submitted);
        by_class = List.map (fun (k, _) -> (k, add (fun r -> List.assoc k r.by_class))) first.by_class;
        applied = add (fun r -> r.applied);
        rejected = add (fun r -> r.rejected);
        unanswered = add (fun r -> r.unanswered);
        multi = add (fun r -> r.multi);
        latencies_ms = sorted_floats (List.concat_map (fun r -> Array.to_list r.latencies_ms) firsts);
        msgs = add (fun r -> r.msgs);
        bytes = add (fun r -> r.bytes);
        corr = add (fun r -> r.corr);
        dropped = add (fun r -> r.dropped);
        retries = add (fun r -> r.retries);
        events = add (fun r -> r.events);
        minor_words = addf (fun r -> r.minor_words);
        sums = List.map (fun (k, _) -> (k, add (fun r -> List.assoc k r.sums))) first.sums;
        send_imbalance = List.fold_left (fun a r -> Float.max a r.send_imbalance) 0. firsts;
        grant_ms_sum = addf (fun r -> r.grant_ms_sum);
        grant_count = add (fun r -> r.grant_count);
        rounds = add (fun r -> r.rounds);
        virtual_s = addf (fun r -> r.virtual_s);
        checker;
        recover_wall_ms = List.concat_map (fun r -> r.recover_wall_ms) firsts;
        recover_to_commit_ms = List.concat_map (fun r -> r.recover_to_commit_ms) firsts;
      }

(* ------------------------------------------------------------------ *)
(* end-to-end metrics                                                    *)

type metric = { m_name : string; m_unit : string; m_value : float }

let m m_name m_unit m_value = { m_name; m_unit; m_value }
let per_update r x = float_of_int x /. float_of_int r.submitted

(* [reps] are the timed untraced repetitions; [first] is the pooled
   warm-up repetitions. Exact quantities come from [first]; wall-clock
   ones are medians over [reps] of calibrated times. *)
let end_to_end ~first ~reps =
  let med f = median (List.map f reps) in
  let lat = first.latencies_ms in
  let n_lat = Array.length lat in
  [
    m "setup_s" "s" (med (fun r -> r.setup_s *. r.scale));
    m "commits_per_s" "updates/s" (med (fun r -> float_of_int r.applied /. (r.run_s *. r.scale)));
    m "applied_ratio" "ratio" (per_update first first.applied);
    m "latency_mean_ms" "vms"
      (if n_lat = 0 then 0. else Array.fold_left ( +. ) 0. lat /. float_of_int n_lat);
    m "latency_p999_ms" "vms" (p999 first);
    m "msgs_per_update" "msgs" (per_update first first.msgs);
    m "bytes_per_update" "bytes" (per_update first first.bytes);
    m "corr_per_update" "corr" (per_update first first.corr);
    m "heap_peak_mb" "MB"
      (float_of_int (first.heap_top_words * (Sys.word_size / 8)) /. 1048576.);
    m "verdict_s" "s" (med (fun r -> secs r.verdict.total_ns *. r.scale));
  ]

(* Figures that are not in the JSON line (zero or undefined on some
   workload), printed as text with their sample counts. *)
let print_extras ~first ~reps =
  let lat = first.latencies_ms in
  let n_lat = Array.length lat in
  let p999v = p999 first in
  let beyond = Array.fold_left (fun a x -> if x > p999v then a + 1 else a) 0 lat in
  Printf.printf "  %-22s %.6f ratio (rejected %d + unanswered %d + multi-answered %d of %d)\n"
    "fail_ratio"
    (per_update first (first.rejected + first.unanswered + first.multi))
    first.rejected first.unanswered first.multi first.submitted;
  Printf.printf "  %-22s %.4f vms over %d applied updates\n" "latency_p50_ms" (rank_pct lat 0.5) n_lat;
  Printf.printf "  %-22s %.4f vms over %d applied updates, %d beyond it%s\n" "latency_p999_ms" p999v
    n_lat beyond
    (if beyond >= 10 then "" else " (fewer than 10 beyond: not a valid tail figure)");
  (match first.recover_to_commit_ms with
  | [] -> Printf.printf "  %-22s n/a (no recoveries in this workload)\n" "recover_to_commit_ms"
  | xs ->
      Printf.printf "  %-22s %.4f vms median over %d recoveries\n" "recover_to_commit_ms" (median xs)
        (List.length xs));
  Printf.printf
    "  %-22s median over %d repetitions: verdict %.6f s (snapshot %.6f, invariants %.6f, \
     check %.6f), run %.6f s, set-up %.6f s (raw); reference loop %.3f ms (nominal %.0f)\n"
    "wall-clock medians" (List.length reps)
    (median (List.map (fun r -> secs r.verdict.total_ns) reps))
    (median (List.map (fun r -> secs r.verdict.snap_ns) reps))
    (median (List.map (fun r -> secs r.verdict.inv_ns) reps))
    (median (List.map (fun r -> secs r.verdict.check_ns) reps))
    (median (List.map (fun r -> r.run_s) reps))
    (median (List.map (fun r -> r.setup_s) reps))
    (median (List.map (fun r -> reference_nominal_ns /. r.scale /. 1e6) reps))
    (reference_nominal_ns /. 1e6);
  Printf.printf "  %-22s 0 (open loop on the virtual clock: update k is submitted at k x interval)\n"
    "generator_lateness_ms"

(* ------------------------------------------------------------------ *)
(* traced run: self time per span kind and the per-layer table           *)

(* Length of the union of [intervals] clipped to [lo, hi). *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Stdlib.max a lo and b = Stdlib.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, _ =
    List.fold_left
      (fun (total, reach) (a, b) ->
        if b <= reach then (total, reach)
        else (total + (b - Stdlib.max a reach), b))
      (0, min_int) clipped
  in
  total

type kind_time = { k_count : int; k_total : int; k_self : int }

(* Self time = duration minus the part of it the children cover, per lane
   (a lane is one domain: children on different domains may overlap in
   wall time). Also checks that each root's self time plus its children's
   durations add up to its duration, i.e. children are disjoint and lie
   inside their parent. *)
let analyse_spans spans =
  let lanes = 1 + List.fold_left (fun m s -> Stdlib.max m s.lane) 0 spans in
  let problems = ref [] in
  let by_kind k = List.filter (fun s -> s.kind = k) spans in
  let table =
    List.map
      (fun k ->
        let own = by_kind k in
        let children = List.filter (fun s -> parent_of s.kind = Some k) spans in
        let self =
          List.fold_left
            (fun acc p ->
              let lane_self =
                List.init lanes (fun l ->
                    let cs =
                      List.filter_map
                        (fun c -> if c.lane = l then Some (c.start, c.stop) else None)
                        children
                    in
                    let union = covered ~lo:p.start ~hi:p.stop cs in
                    let sum = List.fold_left (fun a (x, y) -> a + (y - x)) 0 cs in
                    let self = p.stop - p.start - union in
                    if children <> [] && self + sum <> p.stop - p.start then
                      problems :=
                        Printf.sprintf "%s span lane %d: self %d + children %d <> duration %d ns"
                          (kind_name k) l self sum (p.stop - p.start)
                        :: !problems;
                    self)
              in
              (* a root's self time is its mean over lanes *)
              acc + (List.fold_left ( + ) 0 lane_self / lanes))
            0 own
        in
        let total = List.fold_left (fun a s -> a + s.stop - s.start) 0 own in
        (k, { k_count = List.length own; k_total = total; k_self = self }))
      all_kinds
  in
  (table, List.rev !problems)

(* Σ over lanes of the run span's time outside submissions: the engine's
   event dispatch plus everything the events do (delivery, serving, sync,
   2PC, epoch, faults). *)
let run_deferred_ns r =
  match (r.trace, List.find_opt (fun s -> s.kind = K_run) r.spans) with
  | Some t, Some run ->
      let lanes = 1 + Array.fold_left Stdlib.max 0 t.sub_lane in
      let sub = ref 0 in
      Array.iteri (fun i s -> sub := !sub + (t.sub_stop.(i) - s)) t.sub_start;
      (lanes * (run.stop - run.start)) - !sub
  | _ -> 0

type layer_row = { metric : metric; layer : string; moves : string }

let row name unit value layer moves = { metric = m name unit value; layer; moves }

let per_layer ~first ~untraced ~traced =
  let last = List.nth traced (List.length traced - 1) in
  let medt f = median (List.map f traced) in
  let sum = sum_of first in
  let n = first.submitted in
  let t = Option.get last.trace in
  let sub_ns =
    sorted_floats
      (Array.to_list (Array.mapi (fun i s -> float_of_int (t.sub_stop.(i) - s)) t.sub_start))
  in
  let words = Array.fold_left ( +. ) 0. t.sub_words /. float_of_int n in
  let kinds, _ = analyse_spans last.spans in
  let self k = secs (List.assoc k kinds).k_self in
  let delay_subs = List.assoc Product.Regular first.by_class in
  let shortages = sum "av_shortages" in
  let epoch_subs = List.assoc Product.Epoch first.by_class in
  let committed = sum "txn_committed" and aborted = sum "txn_aborted" in
  let checker f = match first.checker with Some s -> float_of_int (f s) | None -> 0. in
  let med_untraced f = median (List.map f untraced) in
  [
    row "engine.events_per_update" "events" (per_update first first.events) "Engine"
      "commits_per_s @ scm-delay, classes-n1000";
    row "engine.ns_per_event" "ns"
      (medt (fun r -> float_of_int (run_deferred_ns r) /. float_of_int r.events))
      "Engine" "commits_per_s @ scm-delay";
    row "site.submit_ns_p50" "ns" (rank_pct sub_ns 0.5) "Site" "commits_per_s @ scm-delay";
    row "site.submit_ns_p99" "ns" (rank_pct sub_ns 0.99) "Site" "commits_per_s @ scm-delay";
    row "site.submit_words" "words" words "Site" "commits_per_s @ scm-delay";
    row "site.deferred_ns_per_update" "ns"
      (medt (fun r -> float_of_int (run_deferred_ns r) /. float_of_int r.submitted))
      "Site+Rpc+Network" "commits_per_s @ classes-n1000";
    row "site.sync_batches_per_update" "batches" (per_update first (sum "sync_batches_sent"))
      "Site (Delay sync)" "msgs_per_update, commits_per_s @ scm-delay";
    row "site.live_words" "words" last.live_words_mean "Site" "heap_peak_mb @ classes-n1000";
    row "site.recoveries" "count" (float_of_int (List.length first.recover_wall_ms)) "Site recovery"
      "recover_to_commit_ms @ faults-oracle";
    row "site.recover_to_commit_ms" "vms" (median first.recover_to_commit_ms) "Site recovery"
      "recover_to_commit_ms @ faults-oracle";
    row "av.shortage_ratio" "ratio" (ratio shortages delay_subs) "Av_table/Strategy"
      "latency_p999_ms, corr_per_update @ scm-delay";
    row "av.requests_per_shortage" "ratio" (ratio (sum "av_requests_sent") shortages)
      "Strategy/Peer_view" "corr_per_update @ scm-delay";
    row "av.transfer_success_ratio" "ratio" (ratio (sum "applied_transfer") shortages) "Av_table"
      "applied_ratio @ scm-delay";
    row "av.grant_mean_ms" "vms"
      (if first.grant_count = 0 then 0. else first.grant_ms_sum /. float_of_int first.grant_count)
      "Av_table" "latency_p999_ms @ scm-delay";
    row "network.drop_ratio" "ratio" (ratio first.dropped first.msgs) "Network"
      "applied_ratio @ faults-oracle";
    row "network.send_imbalance" "ratio" first.send_imbalance "Network"
      "latency_p999_ms @ classes-n1000";
    row "rpc.retries_per_update" "retries" (per_update first first.retries) "Rpc"
      "latency_p999_ms, msgs_per_update @ faults-oracle";
    row "wal.records_per_update" "records" (per_update first (sum "wal_records")) "Database/Wal"
      "heap_peak_mb, commits_per_s @ scm-delay";
    row "txn_log.records_per_update" "records" (per_update first (sum "txn_log_records")) "Txn_log"
      "heap_peak_mb @ classes-n1000";
    row "two_phase.commit_ratio" "ratio" (ratio committed (committed + aborted)) "Two_phase"
      "applied_ratio @ classes-n1000";
    row "two_phase.in_doubt_recovered" "count" (float_of_int (sum "in_doubt_recovered"))
      "Two_phase/Txn_log" "recover_to_commit_ms @ faults-oracle";
    row "two_phase.termination_queries" "count" (float_of_int (sum "termination_queries"))
      "Two_phase" "recover_to_commit_ms @ faults-oracle";
    row "epoch.batch_mean" "intents" (ratio (sum "applied_epoch") (sum "epochs_sealed"))
      "Site epoch path" "msgs_per_update, latency_mean_ms @ classes-n1000";
    row "epoch.resends_per_intent" "ratio" (ratio (sum "epoch_intents_resent") epoch_subs)
      "Site epoch path" "msgs_per_update @ classes-n1000, faults-oracle";
    row "epoch.takeovers" "count" (float_of_int (sum "epoch_takeovers")) "Site epoch path"
      "recover_to_commit_ms @ faults-oracle";
    row "checker.snapshot_s" "s" (medt (fun r -> secs r.verdict.snap_ns)) "Checker"
      "verdict_s @ faults-oracle";
    row "checker.invariants_s" "s" (medt (fun r -> secs r.verdict.inv_ns)) "System_checks"
      "verdict_s @ classes-n1000";
    row "checker.lin_ops" "ops" (checker (fun s -> s.Checker.n_lin_ops)) "Checker"
      "verdict_s @ faults-oracle";
    row "checker.lin_skipped_items" "items" (checker (fun s -> List.length s.Checker.lin_skipped))
      "Checker" "verdict_s @ faults-oracle";
    row "checker.reads_skipped" "reads" (checker (fun s -> s.Checker.n_reads_skipped)) "Checker"
      "verdict_s @ faults-oracle";
    row "pcluster.rounds_per_vs" "rounds/vs"
      (if first.virtual_s = 0. then 0. else float_of_int first.rounds /. first.virtual_s)
      "Parallel/Pcluster" "commits_per_s @ scm-delay-2dom";
    row "placement.cross_items" "items" (float_of_int first.cross_items) "Placement"
      "commits_per_s @ scm-delay-2dom";
    row "gc.minor_words_per_update" "words"
      (med_untraced (fun r -> r.minor_words /. float_of_int r.submitted))
      "runtime" "commits_per_s @ every workload";
    row "gc.major_collections" "count" (med_untraced (fun r -> float_of_int r.major_collections))
      "runtime" "commits_per_s, heap_peak_mb @ scm-delay";
    row "self.create_s" "s" (self K_create) "Cluster/Pcluster.create" "setup_s @ classes-n1000";
    row "self.run_s" "s" (self K_run) "Runner (engine + deferred work)" "commits_per_s @ every workload";
    row "self.submit_s" "s" (self K_submit) "Site.submit_update" "commits_per_s @ scm-delay";
    row "self.flush_s" "s" (self K_flush) "flush_all_syncs" "verdict_s @ faults-oracle";
    row "trace.overhead_s" "s"
      (medt (fun r -> r.run_s) -. med_untraced (fun r -> r.run_s))
      "benchmark spans" "none (cost of this traced run)";
  ]

(* ------------------------------------------------------------------ *)
(* output                                                                *)

(* All digits, and never a non-JSON token. *)
let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "0"

let json_string s = Printf.sprintf "%S" s

let result_line ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string x.m_name)
             (json_number x.m_value) (json_string x.m_unit))
         metrics)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed body

(* A fixed integer loop, timed in the same process, so wall-clock figures
   from different hosts can be compared through their ratio to it. *)
let calibration_ns_per_iter () =
  let iters = 20_000_000 in
  let once () =
    let x = ref 1 in
    let t0 = now_ns () in
    for _ = 1 to iters do
      x := (!x * 25214903917) + 11
    done;
    let dt = now_ns () - t0 in
    if !x = 0 then print_string "";
    float_of_int dt /. float_of_int iters
  in
  median (List.init 5 (fun _ -> once ()))

let print_span_table spans =
  let table, problems = analyse_spans spans in
  Printf.printf "  %-11s %8s %12s %12s\n" "span" "count" "total_s" "self_s";
  List.iter
    (fun (k, t) ->
      if t.k_count > 0 then
        Printf.printf "  %-11s %8d %12.6f %12.6f\n" (kind_name k) t.k_count (secs t.k_total)
          (secs t.k_self))
    table;
  problems

(* One JSON object per line: the create/run/fault/flush/verdict spans with
   ids and parent ids, then every submission span (its id is the update
   index) and every completion instant with its virtual latency. *)
let write_spans ~path t =
  let oc = open_out path in
  let others = List.rev t.others in
  let id_of k =
    let rec find i = function
      | [] -> "null"
      | s :: rest -> if s.kind = k then string_of_int i else find (i + 1) rest
    in
    find 0 others
  in
  let parent k = match parent_of k with Some p -> id_of p | None -> "null" in
  List.iteri
    (fun id s ->
      Printf.fprintf oc
        "{\"id\": %d, \"name\": %S, \"lane\": %d, \"start_ns\": %d, \"end_ns\": %d, \"parent\": %s}\n"
        id (kind_name s.kind) s.lane s.start s.stop (parent s.kind))
    others;
  Array.iteri
    (fun i start ->
      Printf.fprintf oc
        "{\"name\": \"submit\", \"update\": %d, \"lane\": %d, \"start_ns\": %d, \"end_ns\": %d, \
         \"minor_words\": %.0f, \"parent\": %s}\n"
        i t.sub_lane.(i) start t.sub_stop.(i) t.sub_words.(i) (parent K_submit))
    t.sub_start;
  Array.iteri
    (fun i at ->
      Printf.fprintf oc
        "{\"instant\": \"complete\", \"update\": %d, \"at_ns\": %d, \"latency_vms\": %.3f}\n" i
        at
        (float_of_int t.done_latency_us.(i) /. 1000.))
    t.done_at;
  close_out oc

(* ------------------------------------------------------------------ *)
(* command line                                                          *)

let usage =
  "main.exe --workload NAME --seed N --seconds S --trace 0|1 [--host-nproc N] [--commit ID] \
   [--out-dir DIR] [--mutation NAME]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let host_nproc = ref 0 and commit = ref "unknown" and out_dir = ref "" and mutation = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 0: end-to-end metrics; 1: per-layer metrics");
      ("--host-nproc", Arg.Set_int host_nproc, "N processors available (recorded)");
      ("--commit", Arg.Set_string commit, "ID source revision (recorded)");
      ("--out-dir", Arg.Set_string out_dir, "DIR where the run record and spans are written");
      ("--mutation", Arg.Set_string mutation, "NAME enable a Mutation flag (gate self-test)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        prerr_endline
          ("unknown workload '" ^ !workload ^ "'; one of: "
          ^ String.concat ", " (List.map (fun w -> w.name) workloads));
        exit 2
  in
  let traced_run = !trace = 1 in
  let calib = calibration_ns_per_iter () in
  let t_inputs = now_ns () in
  let sets = Array.init w.input_sets (fun k -> make_inputs w ~seed:(derive !seed k)) in
  let inputs_gen_s = secs (now_ns () - t_inputs) in
  Printf.printf
    "run-record {\"workload\": %S, \"seed\": %d, \"trace\": %d, \"nproc\": %d, \
     \"recommended_domain_count\": %d, \"ocaml\": %S, \"commit\": %S, \
     \"calibration_ns_per_iter\": %s, \"inputs_gen_s\": %s, \"input_sets\": %d, \
     \"updates_per_rep\": %d, \"interval_ms\": %s, \"domains\": %d}\n%!"
    w.name !seed !trace !host_nproc (Domain.recommended_domain_count ()) Sys.ocaml_version !commit
    (json_number calib) (json_number inputs_gen_s) w.input_sets w.n_updates
    (json_number (Time.to_ms (interval w))) w.domains;
  (match !mutation with
  | "" -> ()
  | name -> (
      match Mutation.of_name name with
      | Ok mu -> Mutation.enable mu
      | Error e ->
          prerr_endline e;
          exit 2));
  let report_failure ~attempted ~failed failures =
    Printf.printf "FAILED: the run's checks did not pass; no metric is reported\n";
    List.iteri
      (fun i f ->
        if i < 20 then
          Printf.printf "  %s\n" (if String.length f > 300 then String.sub f 0 300 ^ " ..." else f))
      failures;
    print_endline (result_line ~correct:false ~attempted ~failed []);
    exit 1
  in
  let rep_of k ~traced =
    try run_rep w sets.(k) ~set:k ~seed:(derive !seed k) ~traced
    with e ->
      Mutation.reset ();
      report_failure ~attempted:w.n_updates ~failed:0
        [ "exception during a repetition: " ^ Printexc.to_string e ]
  in
  let started = now_ns () in
  let warm = List.init w.input_sets (fun k -> rep_of k ~traced:false) in
  let reps = ref [] in
  let budget = !seconds * 1_000_000_000 in
  (* whole cycles over the input sets; traced runs alternate cycles *)
  let enough () =
    let untraced = List.length (List.filter (fun r -> not r.traced) !reps) in
    let traced = List.length !reps - untraced in
    let elapsed = now_ns () - started in
    List.length !reps mod w.input_sets = 0
    && ((elapsed >= budget && untraced >= 3 && ((not traced_run) || traced >= 3))
       || (elapsed >= 3 * budget && untraced >= 1 && ((not traced_run) || traced >= 1)))
  in
  if List.for_all (fun r -> r.failures = []) warm then
    while not (enough ()) do
      let i = List.length !reps in
      let traced = traced_run && i / w.input_sets mod 2 = 1 in
      reps := rep_of (i mod w.input_sets) ~traced :: !reps
    done;
  Mutation.reset ();
  let reps = List.rev !reps in
  let all = warm @ reps in
  let failures =
    List.concat_map (fun r -> r.failures) all
    @ determinism_failures ~domains:w.domains ~sets:w.input_sets all
  in
  let attempted = List.fold_left (fun a r -> a + r.submitted) 0 all in
  let failed = List.fold_left (fun a r -> a + r.unanswered + r.multi) 0 all in
  let untraced = List.filter (fun r -> not r.traced) reps in
  let traced = List.filter (fun r -> r.traced) reps in
  Printf.printf "repetitions: %d warm-up + %d timed (%d traced); %.1f s measured\n"
    (List.length warm) (List.length reps) (List.length traced)
    (secs (now_ns () - started));
  List.iteri
    (fun i r ->
      Printf.printf "  rep %d (set %d)%s: setup %.6f s, run %.6f s, flush %.6f s, verdict %.6f s\n" i
        r.set
        (if r.traced then " traced" else "")
        r.setup_s r.run_s r.flush_s (secs r.verdict.total_ns))
    all;
  let failures =
    if failures <> [] || not traced_run then failures
    else begin
      Printf.printf "spans of the last traced repetition:\n";
      let last = List.nth traced (List.length traced - 1) in
      let problems = print_span_table last.spans in
      (match (!out_dir, last.trace) with
      | "", _ | _, None -> ()
      | dir, Some t ->
          let name = Printf.sprintf "%s-seed%d.spans.jsonl" w.name !seed in
          write_spans ~path:(Filename.concat dir name) t);
      List.map (fun p -> "trace: " ^ p) problems
    end
  in
  if failures <> [] then report_failure ~attempted ~failed failures;
  let warm = pool warm in
  let metrics =
    if not traced_run then begin
      let e2e = end_to_end ~first:warm ~reps:untraced in
      Printf.printf "end-to-end (%s, seed %d):\n" w.name !seed;
      List.iter (fun x -> Printf.printf "  %-22s %.6f %s\n" x.m_name x.m_value x.m_unit) e2e;
      print_extras ~first:warm ~reps:untraced;
      e2e
    end
    else begin
      let rows = per_layer ~first:warm ~untraced ~traced in
      Printf.printf "per-layer (%s, seed %d):\n  %-30s %16s %-9s %-32s %s\n" w.name !seed "metric"
        "value" "unit" "layer" "should move";
      List.iter
        (fun r ->
          Printf.printf "  %-30s %16.6f %-9s %-32s %s\n" r.metric.m_name r.metric.m_value
            r.metric.m_unit r.layer r.moves)
        rows;
      (match warm.recover_wall_ms with
      | [] -> ()
      | xs ->
          Printf.printf "  %-30s %16.6f ms (max %.6f ms, %d recoveries) Site recovery -> commits_per_s @ faults-oracle\n"
            "site.recover_ms_p50" (median xs) (List.fold_left Float.max 0. xs) (List.length xs));
      if w.faults then
        Printf.printf "  %-30s %16.6f s  Checker -> verdict_s @ faults-oracle\n" "checker.check_s"
          (median (List.map (fun r -> secs r.verdict.check_ns) traced));
      List.map (fun r -> r.metric) rows
    end
  in
  print_endline (result_line ~correct:true ~attempted ~failed metrics)
