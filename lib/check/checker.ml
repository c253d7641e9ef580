open Avdb_core

type snapshot = {
  mode : Config.mode;
  products : Product.t list;
  replicas : (string * int option list) list;
  bases : (string * int) list;
  books : (string * Model.books) list;
  granted : int;
  received : int;
  amnesiac : int list;
}

let snapshot_of_cluster cluster =
  let config = Cluster.config cluster and topology = Cluster.topology cluster in
  let sites = Cluster.sites cluster in
  let site i = sites.(i) in
  let products = config.Config.products in
  let subscribers item = Topology.subscribers topology ~item in
  let bases =
    List.map
      (fun (p : Product.t) ->
        (p.Product.name, Topology.base_index topology ~item:p.Product.name))
      products
  in
  (* An item's replica holders, the base first: the convergence and
     virtual-final-read checks key on the head being the primary copy.
     Under partial replication only subscribers appear at all. A holder
     whose copy is quarantined after a storage fault is excluded: it
     rejects reads and votes Refuse, so its stale raw value is not
     client-visible state — corruption costs availability, never
     consistency. *)
  let holder_sites item =
    let base = Topology.base_index topology ~item in
    List.filter
      (fun i -> not (Site.is_quarantined (site i) ~item))
      (base :: List.filter (fun i -> i <> base) (subscribers item))
  in
  let replicas =
    List.map
      (fun (p : Product.t) ->
        let item = p.Product.name in
        ( item,
          List.map (fun i -> Site.amount_of (site i) ~item) (holder_sites item)
        ))
      products
  in
  let books =
    match config.Config.mode with
    | Config.Centralized -> []
    | Config.Autonomous ->
        List.filter_map
          (fun (p : Product.t) ->
            if not (Product.is_regular p) then None
            else
              let item = p.Product.name in
              let sum f =
                List.fold_left
                  (fun acc i -> acc + f (Site.av_table (site i)) ~item)
                  0 (subscribers item)
              in
              Some
                ( item,
                  {
                    Model.defined = sum Avdb_av.Av_table.defined_volume;
                    minted = sum Avdb_av.Av_table.minted;
                    consumed = sum Avdb_av.Av_table.consumed;
                    live = sum Avdb_av.Av_table.total;
                  } ))
          products
  in
  let granted =
    Array.fold_left
      (fun acc s -> acc + (Site.metrics s).Update.Metrics.av_volume_granted)
      0 sites
  in
  let received =
    Array.fold_left
      (fun acc s -> acc + (Site.metrics s).Update.Metrics.av_volume_received)
      0 sites
  in
  let amnesiac =
    List.filter (fun i -> Site.is_amnesiac sites.(i)) (List.init (Array.length sites) Fun.id)
  in
  { mode = config.Config.mode; products; replicas; bases; books; granted; received; amnesiac }

(* Kept only because perfbench/ compiles against it. *)
let snapshot_of_pcluster = snapshot_of_cluster

type violation =
  | Double_response of { entry : History.entry }
  | Non_linearizable of { item : string; ops : History.entry list }
  | Divergence of { item : string; values : int option list; expected : int option }
  | Negative_amount of { item : string; site : int; value : int }
  | Stale_read of { read : History.entry; item : string; value : int option }
  | Av_imbalance of { item : string option; message : string }

type stats = {
  n_entries : int;
  n_strong_items : int;
  n_lin_ops : int;
  lin_skipped : string list;
  n_replica_reads : int;
  n_reads_skipped : int;
}

type verdict = { violations : violation list; stats : stats }

let ok v = v.violations = []
let max_lin_ops = 62

(* --- history classification ------------------------------------------- *)

(* An item is "strong" when its updates run a coordinated protocol against
   the primary copy: every item in centralized mode, non-regular items in
   autonomous mode. Epoch-class items are neither strong nor Delay: their
   writers commit locally and the epoch sequencer totally orders intents
   after the fact, so they get their own quiescent-convergence rule below.
   Everything else is a Delay-Update (regular) item. *)
type item_class = Strong | Epoch | Delay

let class_of mode (p : Product.t) =
  match mode with
  | Config.Centralized -> Strong
  | Config.Autonomous ->
      if Product.is_epoch p then Epoch else if Product.is_regular p then Delay else Strong

(* Every entry naming an item, per item, in history order — the one pass
   over the history that every later check reads from. A batch is listed
   under each item it names. *)
let index_by_item entries =
  let tbl : (string, History.entry list ref) Hashtbl.t = Hashtbl.create 256 in
  let push (e : History.entry) item =
    match Hashtbl.find_opt tbl item with
    | Some r -> r := e :: !r
    | None -> Hashtbl.add tbl item (ref [ e ])
  in
  List.iter
    (fun (e : History.entry) ->
      match e.History.op with
      | History.Update { item; _ } | History.Read_local { item } | History.Read_auth { item } ->
          push e item
      | History.Batch { deltas } -> List.iter (push e) (List.sort_uniq compare (List.map fst deltas)))
    entries;
  let index = Hashtbl.create (Hashtbl.length tbl) in
  Hashtbl.iter (fun item r -> Hashtbl.replace index item (List.rev !r)) tbl;
  index

(* An item's committed Delay Update deltas in response order:
   [(site, resp_seq, delta)]. Batch components count individually — the
   batch committed atomically, but replication carries them as ordinary
   per-item counters. *)
let delay_stream ~item entries =
  List.concat_map
    (fun (e : History.entry) ->
      let at d = (e.History.site, e.History.resp_seq, d) in
      match (e.History.op, e.History.resp) with
      | History.Update { delta; _ }, Some (History.Applied (Update.Local | Update.With_transfer _))
        ->
          [ at delta ]
      | History.Batch { deltas }, Some (History.Applied (Update.Local | Update.With_transfer _)) ->
          List.filter_map (fun (i, d) -> if String.equal i item then Some (at d) else None) deltas
      | _ -> [])
    entries
  |> List.stable_sort (fun (_, a, _) (_, b, _) -> compare a b)

(* --- linearizability --------------------------------------------------- *)

type sem = Write of int | Failed_write of int | Read of int | Final of int

type lop = { sem : sem; inv : int; resp : int; definite : bool; entry : History.entry option }

let step value op =
  match op.sem with
  | Write d -> if value + d < 0 then None else Some (value + d)
  | Failed_write d -> if value + d < 0 then Some value else None
  | Read v | Final v -> if value = v then Some value else None

(* Wing & Gong search, memoized on the linearized set: deltas commute, so
   the set alone determines the register value and therefore the rest of
   the search. Ambiguous operations (resp = max_int) are optional: success
   is every *definite* operation linearized. *)
let linearizable ~initial ops =
  let n = Array.length ops in
  let full_definite = ref 0 in
  Array.iteri (fun i op -> if op.definite then full_definite := !full_definite lor (1 lsl i)) ops;
  let full_definite = !full_definite in
  let memo = Hashtbl.create 997 in
  let rec go taken value =
    if taken land full_definite = full_definite then true
    else if Hashtbl.mem memo taken then false
    else begin
      (* an op may linearize next iff no other unlinearized op responded
         before it was invoked *)
      let min_resp = ref max_int in
      for i = 0 to n - 1 do
        if taken land (1 lsl i) = 0 && ops.(i).resp < !min_resp then min_resp := ops.(i).resp
      done;
      let found = ref false in
      let i = ref 0 in
      while (not !found) && !i < n do
        let j = !i in
        incr i;
        if taken land (1 lsl j) = 0 && ops.(j).inv < !min_resp then
          match step value ops.(j) with
          | Some value' -> if go (taken lor (1 lsl j)) value' then found := true
          | None -> ()
      done;
      if not !found then Hashtbl.add memo taken ();
      !found
    end
  in
  go 0 initial

(* Minimal failing prefix in completion order. Ambiguous operations ride
   along in every prefix — they are optional, so they only ever add
   explanations. *)
let minimal_prefix ~initial ops =
  let definite, ambiguous = List.partition (fun o -> o.definite) ops in
  let definite = List.sort (fun a b -> compare (a.resp, a.inv) (b.resp, b.inv)) definite in
  let rec go k =
    let prefix = List.filteri (fun i _ -> i < k) definite @ ambiguous in
    if not (linearizable ~initial (Array.of_list prefix)) then prefix
    else if k >= List.length definite then ops (* shouldn't happen; be total *)
    else go (k + 1)
  in
  go 1

(* [with_reads] holds in centralized mode, where the base applies updates
   synchronously on receipt and its replica is always a committed value. In
   autonomous mode 2PC participants install *tentative* writes at prepare
   time and reads take no locks, so a read during an in-doubt window
   legitimately sees uncommitted deltas — those reads get the weaker
   subset check below instead of a linearizability slot. *)
let strong_ops_for_item entries ~base ~with_reads =
  List.filter_map
    (fun (e : History.entry) ->
      match e.History.op with
      | History.Update { delta; _ } -> (
          match e.History.resp with
          | Some (History.Applied (Update.Immediate | Update.Central)) ->
              Some
                {
                  sem = Write delta;
                  inv = e.History.inv_seq;
                  resp = e.History.resp_seq;
                  definite = true;
                  entry = Some e;
                }
          | Some (History.Rejected Update.Insufficient_stock) ->
              Some
                {
                  sem = Failed_write delta;
                  inv = e.History.inv_seq;
                  resp = e.History.resp_seq;
                  definite = true;
                  entry = Some e;
                }
          | Some (History.Rejected Update.Unreachable) | None ->
              (* the client never learned the fate: the write may have
                 committed behind its back, any time after invocation *)
              Some
                {
                  sem = Write delta;
                  inv = e.History.inv_seq;
                  resp = max_int;
                  definite = false;
                  entry = Some e;
                }
          | Some _ -> None)
      | History.Read_auth _ when with_reads -> (
          match e.History.resp with
          | Some (History.Read_value v) ->
              Some
                {
                  sem = Read (Option.value ~default:min_int v);
                  inv = e.History.inv_seq;
                  resp = e.History.resp_seq;
                  definite = true;
                  entry = Some e;
                }
          | _ -> None)
      | History.Read_local _ when with_reads && e.History.site = base -> (
          (* the base's local replica IS the primary copy in this mode *)
          match e.History.resp with
          | Some (History.Read_value v) ->
              Some
                {
                  sem = Read (Option.value ~default:min_int v);
                  inv = e.History.inv_seq;
                  resp = e.History.resp_seq;
                  definite = true;
                  entry = Some e;
                }
          | _ -> None)
      | _ -> None)
    entries

let check_strong_item ~entries ~replicas ~quiescent ~initial ~base ~with_reads item =
  let ops = strong_ops_for_item entries ~base ~with_reads in
  let ops =
    if not quiescent then ops
    else
      (* the end-state primary copy must be the final value of some legal
         order: join the search as a virtual read that linearizes last *)
      match List.assoc_opt item replicas with
      | Some (Some base_value :: _) ->
          { sem = Final base_value; inv = max_int - 1; resp = max_int; definite = true; entry = None }
          :: ops
      | _ -> ops
  in
  if List.length ops > max_lin_ops then `Skipped
  else if linearizable ~initial (Array.of_list ops) then `Ok (List.length ops)
  else
    let prefix = minimal_prefix ~initial ops in
    `Violation
      (Non_linearizable { item; ops = List.filter_map (fun o -> o.entry) prefix })

(* --- replica reads (session + reachability) ---------------------------- *)

(* Reads of strong and epoch items get a weak check: the value must be
   initial plus *some* subset of the item's qualifying writes invoked
   before the read responded. For a 2PC item in autonomous mode those are
   the writes that may have installed a tentative delta (reads take no
   locks, so a value may include deltas of prepared-undecided
   transactions). For an epoch item they are the intents that may have
   sealed: a replica exposes the prefix of sealed epochs it has applied,
   and an intent the client saw rejected (or never saw answered) may
   still seal later. *)
let strong_write_counts = function
  | Some (History.Applied (Update.Immediate | Update.Central))
  | Some (History.Rejected (Update.Unreachable | Update.Txn_aborted))
  | None ->
      true
  | Some _ -> false

let epoch_write_counts = function
  | Some (History.Applied Update.Epoch) | Some (History.Rejected Update.Unreachable) | None -> true
  | Some _ -> false

(* The weak-check verdict of every value-returning read of one item, by
   entry id: [Some member], or [None] when the reachable set passed the
   cap. A read's delta set is every qualifying write with
   [inv_seq < read.resp_seq], so the sets are nested in [resp_seq] order:
   one sweep extends a single subset-sum set write by write. Adding a
   delta never shrinks the set ([0 ∈ {0, d}]), so once it passes the cap
   it stays past it — exactly the reads whose own set would exceed the cap
   are skipped. *)
let sweep_weak_reads ~counts ~initial entries results =
  let writes =
    List.filter_map
      (fun (e : History.entry) ->
        match e.History.op with
        | History.Update { delta; _ } when counts e.History.resp -> Some (e.History.inv_seq, delta)
        | _ -> None)
      entries
    |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
  in
  let reads =
    List.filter_map
      (fun (e : History.entry) ->
        match (e.History.op, e.History.resp) with
        | (History.Read_local _ | History.Read_auth _), Some (History.Read_value (Some v)) ->
            Some (e.History.resp_seq, e.History.id, v)
        | _ -> None)
      entries
    |> List.stable_sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  ignore
    (List.fold_left
       (fun (sums, writes) (resp_seq, id, v) ->
         let rec extend sums = function
           | (inv_seq, d) :: rest when inv_seq < resp_seq ->
               extend (Option.bind sums (fun s -> Model.add_delta s d)) rest
           | writes -> (sums, writes)
         in
         let sums, writes = extend sums writes in
         Hashtbl.replace results id (Option.map (fun s -> Model.mem s (v - initial)) sums);
         (sums, writes))
       (Some [| 0 |], writes) reads)

(* A Delay item's committed stream split by origin site (ascending), each
   origin's [(resp_seq, delta)] in stream order. *)
let by_origin stream =
  let origins = List.sort_uniq compare (List.map (fun (site, _, _) -> site) stream) in
  List.map
    (fun origin ->
      ( origin,
        Array.of_list
          (List.filter_map
             (fun (site, resp_seq, d) -> if site = origin then Some (resp_seq, d) else None)
             stream) ))
    origins

(* How many leading elements of [a] (sorted by resp_seq) have
   [resp_seq < seq]. *)
let count_before a seq =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) lsr 1 in
      if fst a.(mid) < seq then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length a)

(* A replica's value for a Delay-Update item is always
   [initial + Σ_origin (prefix of that origin's committed delta stream)].
   For the site whose replica is being read, the prefix is pinned from
   below: every own delta committed before the read was invoked is
   visible (the apply is synchronous). For an authoritative read the
   "own" site is the base. *)
let check_replica_read ~origins ~initial ~(read : History.entry) ~item ~value ~self =
  match value with
  | None -> `Violation (Stale_read { read; item; value = None })
  | Some v -> (
      (* per origin, the prefix sums of length min_len .. visible; an
         origin with nothing visible contributes only 0 and is left out *)
      let choice_lists =
        List.filter_map
          (fun (origin, deltas) ->
            let visible = count_before deltas read.History.resp_seq in
            if visible = 0 then None
            else
              let min_len = if origin = self then count_before deltas read.History.inv_seq else 0 in
              let acc = ref 0 in
              for i = 0 to min_len - 1 do
                acc := !acc + snd deltas.(i)
              done;
              let sums = ref [ !acc ] in
              for i = min_len to visible - 1 do
                acc := !acc + snd deltas.(i);
                sums := !acc :: !sums
              done;
              Some !sums)
          origins
      in
      match Model.sum_set choice_lists with
      | None -> `Skipped
      | Some reachable ->
          if Model.mem reachable (v - initial) then `Ok
          else `Violation (Stale_read { read; item; value = Some v }))

(* --- the check --------------------------------------------------------- *)

let check ?(quiescent = true) ~history snapshot =
  let entries = History.entries history in
  let violations = ref [] in
  let add v = violations := v :: !violations in
  (* first binding wins, as with List.assoc *)
  let table bindings =
    let t = Hashtbl.create 256 in
    List.iter (fun (k, v) -> if not (Hashtbl.mem t k) then Hashtbl.add t k v) bindings;
    t
  in
  let products =
    table (List.map (fun (p : Product.t) -> (p.Product.name, p)) snapshot.products)
  in
  let bases = table snapshot.bases in
  let strong =
    List.filter_map
      (fun (p : Product.t) ->
        if class_of snapshot.mode p = Strong then Some p.Product.name else None)
      snapshot.products
  in
  let index = index_by_item entries in
  let entries_of item = Option.value ~default:[] (Hashtbl.find_opt index item) in
  let streams = Hashtbl.create 256 in
  let stream_of item =
    match Hashtbl.find_opt streams item with
    | Some s -> s
    | None ->
        let s = delay_stream ~item (entries_of item) in
        Hashtbl.add streams item s;
        s
  in
  (* the item's primary site; [] bases means the legacy single base 0 *)
  let base_of item = Option.value ~default:0 (Hashtbl.find_opt bases item) in

  (* 1. every continuation fires at most once *)
  List.iter
    (fun (e : History.entry) -> if e.History.n_responses > 1 then add (Double_response { entry = e }))
    entries;

  (* 2. linearizability of strong items *)
  let n_lin_ops = ref 0 in
  let lin_skipped = ref [] in
  List.iter
    (fun item ->
      let initial = (Hashtbl.find products item).Product.initial_amount in
      match
        check_strong_item ~entries:(entries_of item) ~replicas:snapshot.replicas ~quiescent
          ~initial ~base:(base_of item)
          ~with_reads:(snapshot.mode = Config.Centralized)
          item
      with
      | `Ok n -> n_lin_ops := !n_lin_ops + n
      | `Skipped -> lin_skipped := item :: !lin_skipped
      | `Violation v -> add v)
    strong;

  (* 3. replica reads: session guarantee + reachability *)
  let n_replica_reads = ref 0 in
  let n_reads_skipped = ref 0 in
  let weak = Hashtbl.create 1024 in
  let origins = Hashtbl.create 256 in
  if snapshot.mode = Config.Autonomous then
    Hashtbl.iter
      (fun item entries ->
        match Hashtbl.find_opt products item with
        | None -> ()
        | Some p -> (
            let initial = p.Product.initial_amount in
            match class_of snapshot.mode p with
            | Strong -> sweep_weak_reads ~counts:strong_write_counts ~initial entries weak
            | Epoch -> sweep_weak_reads ~counts:epoch_write_counts ~initial entries weak
            | Delay -> Hashtbl.replace origins item (by_origin (stream_of item))))
      index;
  (* [None] from a strong item's amnesiac base, or from an epoch item's
     amnesiac holder, is unavailability by design, not a stale value: an
     amnesiac base quarantines its non-regular items after protocol-log
     loss and answers None while (or instead of) repairing. A read issued
     pre-crash can be retried into the quarantine window, so fire-time
     gating at the injector cannot fully prevent these. *)
  let weak_read ~(read : History.entry) ~item ~value ~unavailable =
    match value with
    | None when List.mem unavailable snapshot.amnesiac -> `Skipped
    | None -> `Violation (Stale_read { read; item; value = None })
    | Some v -> (
        match Hashtbl.find weak read.History.id with
        | None -> `Skipped
        | Some true -> `Ok
        | Some false -> `Violation (Stale_read { read; item; value = Some v }))
  in
  List.iter
    (fun (e : History.entry) ->
      let examine ~item ~self =
        if snapshot.mode = Config.Autonomous then
          match (Hashtbl.find_opt products item, e.History.resp) with
          | Some p, Some (History.Read_value value) -> (
              let result =
                match class_of snapshot.mode p with
                | Strong -> weak_read ~read:e ~item ~value ~unavailable:(base_of item)
                | Epoch -> weak_read ~read:e ~item ~value ~unavailable:self
                | Delay ->
                    check_replica_read ~origins:(Hashtbl.find origins item)
                      ~initial:p.Product.initial_amount ~read:e ~item ~value ~self
              in
              match result with
              | `Ok -> incr n_replica_reads
              | `Skipped -> incr n_reads_skipped
              | `Violation v ->
                  incr n_replica_reads;
                  add v)
          | _ -> ()
      in
      match e.History.op with
      | History.Read_local { item } -> examine ~item ~self:e.History.site
      | History.Read_auth { item } -> examine ~item ~self:(base_of item)
      | _ -> ())
    entries;

  if quiescent then begin
    (* 4. convergence: regular replicas agree on exactly the model replay *)
    List.iter
      (fun (p : Product.t) ->
        let item = p.Product.name in
        let values =
          match List.assoc_opt item snapshot.replicas with Some v -> v | None -> []
        in
        let agreed =
          match values with [] -> true | v0 :: rest -> List.for_all (fun v -> v = v0) rest
        in
        match class_of snapshot.mode p with
        | Epoch -> (
            (* Every non-quarantined holder must expose the same sealed
               prefix, and the agreed value must be initial + every
               definitely-applied delta + some subset of the ambiguous ones
               (submissions rejected Unreachable or never answered — their
               intents may have sealed behind the client's back). Negative
               stock is legal by design: epoch writers never coordinate
               before committing. *)
            let definite = ref 0 in
            let ambiguous = ref [] in
            List.iter
              (fun (w : History.entry) ->
                match (w.History.op, w.History.resp) with
                | History.Update { delta; _ }, Some (History.Applied Update.Epoch) ->
                    definite := !definite + delta
                | History.Update { delta; _ }, (Some (History.Rejected Update.Unreachable) | None)
                  ->
                    ambiguous := delta :: !ambiguous
                | _ -> ())
              (entries_of item);
            let floor = p.Product.initial_amount + !definite in
            let diverged () = add (Divergence { item; values; expected = Some floor }) in
            match values with
            | [] -> ()
            | _ when not agreed -> diverged ()
            | None :: _ -> diverged ()
            | Some v :: _ -> (
                match Model.subset_sums !ambiguous with
                | None -> () (* reachable set exceeded the cap: skip *)
                | Some sums -> if not (Model.mem sums (v - floor)) then diverged ()))
        | Delay ->
            let expected =
              p.Product.initial_amount
              + List.fold_left (fun acc (_, _, d) -> acc + d) 0 (stream_of item)
            in
            List.iteri
              (fun site v ->
                match v with
                | Some v when v < 0 -> add (Negative_amount { item; site; value = v })
                | _ -> ())
              values;
            if (not agreed) || List.exists (fun v -> v <> Some expected) values then
              add (Divergence { item; values; expected = Some expected })
        | Strong ->
            (* replicas must agree (the 2PC cohort is every site); the
               common value's legality is the virtual final read's job. In
               centralized mode only the base copy is maintained. *)
            if snapshot.mode = Config.Autonomous && not agreed then
              add (Divergence { item; values; expected = None }))
      snapshot.products;

    (* 5. AV conservation: books balance and match the history *)
    let total_deficit = ref 0 in
    List.iter
      (fun (item, books) ->
        let d = Model.deficit books in
        total_deficit := !total_deficit + d;
        if d < 0 then
          add
            (Av_imbalance
               {
                 item = Some item;
                 message =
                   Printf.sprintf
                     "volume created out of thin air: defined %d + minted %d - consumed %d \
                      - live %d = %d"
                     books.Model.defined books.Model.minted books.Model.consumed
                     books.Model.live d;
               });
        let stream = stream_of item in
        let minted_hist =
          List.fold_left (fun acc (_, _, d) -> if d > 0 then acc + d else acc) 0 stream
        in
        let consumed_hist =
          List.fold_left (fun acc (_, _, d) -> if d < 0 then acc - d else acc) 0 stream
        in
        if books.Model.minted <> minted_hist then
          add
            (Av_imbalance
               {
                 item = Some item;
                 message =
                   Printf.sprintf
                     "ledger minted %d but the history committed +%d of positive Delay \
                      Updates"
                     books.Model.minted minted_hist;
               });
        if books.Model.consumed <> consumed_hist then
          add
            (Av_imbalance
               {
                 item = Some item;
                 message =
                   Printf.sprintf
                     "ledger consumed %d but the history committed -%d of negative Delay \
                      Updates"
                     books.Model.consumed consumed_hist;
               }))
      snapshot.books;
    if snapshot.books <> [] then begin
      let leaked = snapshot.granted - snapshot.received in
      if leaked < 0 then
        add
          (Av_imbalance
             {
               item = None;
               message =
                 Printf.sprintf "more AV received (%d) than granted (%d): volume conjured in \
                                 flight"
                   snapshot.received snapshot.granted;
             })
      else if !total_deficit <> leaked then
        add
          (Av_imbalance
             {
               item = None;
               message =
                 Printf.sprintf
                   "books are short %d units overall but the measured in-flight grant leak \
                    is %d (granted %d - received %d)"
                   !total_deficit leaked snapshot.granted snapshot.received;
             })
    end
  end;

  {
    violations = List.rev !violations;
    stats =
      {
        n_entries = History.length history;
        n_strong_items = List.length strong - List.length !lin_skipped;
        n_lin_ops = !n_lin_ops;
        lin_skipped = List.rev !lin_skipped;
        n_replica_reads = !n_replica_reads;
        n_reads_skipped = !n_reads_skipped;
      };
  }

(* --- printing ----------------------------------------------------------- *)

let pp_int_opt ppf = function
  | Some v -> Format.pp_print_int ppf v
  | None -> Format.pp_print_string ppf "-"

let pp_violation ppf = function
  | Double_response { entry } ->
      Format.fprintf ppf "@[<v 2>continuation fired %d times:@,%a@]" entry.History.n_responses
        History.pp_entry entry
  | Non_linearizable { item; ops } ->
      Format.fprintf ppf "@[<v 2>%s: no linearization admits these operations:@,%a@]" item
        (Format.pp_print_list History.pp_entry)
        ops
  | Divergence { item; values; expected } ->
      Format.fprintf ppf "@[<v 2>%s: replicas diverge at quiescence: [%a]%a@]" item
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ") pp_int_opt)
        values
        (fun ppf -> function
          | Some e -> Format.fprintf ppf " (model expects %d)" e
          | None -> ())
        expected
  | Negative_amount { item; site; value } ->
      Format.fprintf ppf "%s: site%d holds negative stock %d at quiescence" item site value
  | Stale_read { read; item; value } ->
      Format.fprintf ppf
        "@[<v 2>%s: read returned %a, outside the reachable set (missing own writes or \
         impossible prefix combination):@,%a@]"
        item pp_int_opt value History.pp_entry read
  | Av_imbalance { item; message } ->
      Format.fprintf ppf "AV conservation%a: %s"
        (fun ppf -> function Some i -> Format.fprintf ppf " (%s)" i | None -> ())
        item message

let pp_verdict ppf v =
  if ok v then
    Format.fprintf ppf
      "consistency oracle: OK (%d entries; %d strong ops over %d items linearizable; %d \
       replica reads in reachable sets%s%s)"
      v.stats.n_entries v.stats.n_lin_ops v.stats.n_strong_items v.stats.n_replica_reads
      (if v.stats.n_reads_skipped > 0 then
         Printf.sprintf "; %d reads skipped (cap)" v.stats.n_reads_skipped
       else "")
      (if v.stats.lin_skipped <> [] then
         Printf.sprintf "; %d items skipped (op cap)" (List.length v.stats.lin_skipped)
       else "")
  else
    Format.fprintf ppf "@[<v 2>consistency oracle: %d violation(s)@,%a@]"
      (List.length v.violations)
      (Format.pp_print_list pp_violation)
      v.violations
