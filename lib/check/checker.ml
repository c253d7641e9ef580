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
let strong_items mode products =
  List.filter_map
    (fun (p : Product.t) ->
      match mode with
      | Config.Centralized -> Some p.Product.name
      | Config.Autonomous ->
          if Product.is_regular p || Product.is_epoch p then None
          else Some p.Product.name)
    products

let epoch_items mode products =
  match mode with
  | Config.Centralized -> []
  | Config.Autonomous ->
      List.filter_map
        (fun (p : Product.t) ->
          if Product.is_epoch p then Some p.Product.name else None)
        products

(* Committed Delay Update deltas per item per origin site, in response
   order: [(item, (site, resp_seq, delta))]. Batch components count
   individually — the batch committed atomically, but replication carries
   them as ordinary per-item counters. *)
let delay_streams entries =
  let tbl : (string, (int * int * int) list ref) Hashtbl.t = Hashtbl.create 64 in
  let push item site resp_seq delta =
    let r =
      match Hashtbl.find_opt tbl item with
      | Some r -> r
      | None ->
          let r = ref [] in
          Hashtbl.add tbl item r;
          r
    in
    r := (site, resp_seq, delta) :: !r
  in
  List.iter
    (fun (e : History.entry) ->
      match (e.History.op, e.History.resp) with
      | ( History.Update { item; delta },
          Some (History.Applied (Update.Local | Update.With_transfer _)) ) ->
          push item e.History.site e.History.resp_seq delta
      | ( History.Batch { deltas },
          Some (History.Applied (Update.Local | Update.With_transfer _)) ) ->
          List.iter (fun (item, delta) -> push item e.History.site e.History.resp_seq delta)
            deltas
      | _ -> ())
    entries;
  Hashtbl.fold
    (fun item r acc ->
      ( item,
        List.sort (fun (_, a, _) (_, b, _) -> compare a b) (List.rev !r) )
      :: acc)
    tbl []

let stream_for streams item =
  match List.assoc_opt item streams with Some l -> l | None -> []

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
let strong_ops_for_item entries ~item ~base ~with_reads =
  List.filter_map
    (fun (e : History.entry) ->
      match e.History.op with
      | History.Update { item = i; delta } when String.equal i item -> (
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
      | History.Read_auth { item = i } when with_reads && String.equal i item -> (
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
      | History.Read_local { item = i }
        when with_reads && String.equal i item && e.History.site = base -> (
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
  let ops = strong_ops_for_item entries ~item ~base ~with_reads in
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

(* A replica's value for a Delay-Update item is always
   [initial + Σ_origin (prefix of that origin's committed delta stream)].
   For the site whose replica is being read, the prefix is pinned from
   below: every own delta committed before the read was invoked is
   visible (the apply is synchronous). For an authoritative read the
   "own" site is the base. *)
let check_replica_read ~streams ~initial ~(read : History.entry) ~item ~value ~self =
  match value with
  | None -> `Violation (Stale_read { read; item; value = None })
  | Some v ->
      let stream = stream_for streams item in
      let origins =
        List.sort_uniq compare (List.map (fun (site, _, _) -> site) stream)
      in
      let choice_lists =
        List.map
          (fun origin ->
            let deltas =
              List.filter_map
                (fun (site, resp_seq, delta) ->
                  if site = origin && resp_seq < read.History.resp_seq then Some (resp_seq, delta)
                  else None)
                stream
            in
            let min_len =
              if origin = self then
                List.length
                  (List.filter (fun (resp_seq, _) -> resp_seq < read.History.inv_seq) deltas)
              else 0
            in
            (* prefix sums of length >= min_len *)
            let _, _, sums =
              List.fold_left
                (fun (len, acc, sums) (_, d) ->
                  let acc = acc + d in
                  (len + 1, acc, if len + 1 >= min_len then acc :: sums else sums))
                (0, 0, if min_len = 0 then [ 0 ] else [])
                deltas
            in
            List.sort_uniq compare sums)
          origins
      in
      if List.exists (fun l -> l = []) choice_lists then
        (* min_len pruned everything *)
        `Violation (Stale_read { read; item; value = Some v })
      else
        match Model.sum_set choice_lists with
        | None -> `Skipped
        | Some reachable ->
            if List.mem (v - initial) reachable then `Ok
            else `Violation (Stale_read { read; item; value = Some v })

(* --- the check --------------------------------------------------------- *)

let check ?(quiescent = true) ~history snapshot =
  let entries = History.entries history in
  let violations = ref [] in
  let add v = violations := v :: !violations in
  let strong = strong_items snapshot.mode snapshot.products in
  let is_strong item = List.mem item strong in
  let epochs = epoch_items snapshot.mode snapshot.products in
  let is_epoch item = List.mem item epochs in
  let initial_of item =
    match List.find_opt (fun (p : Product.t) -> String.equal p.Product.name item) snapshot.products with
    | Some p -> Some p.Product.initial_amount
    | None -> None
  in
  let streams = delay_streams entries in
  (* the item's primary site; [] bases means the legacy single base 0 *)
  let base_of item = Option.value ~default:0 (List.assoc_opt item snapshot.bases) in

  (* 1. every continuation fires at most once *)
  List.iter
    (fun (e : History.entry) -> if e.History.n_responses > 1 then add (Double_response { entry = e }))
    entries;

  (* 2. linearizability of strong items *)
  let n_lin_ops = ref 0 in
  let lin_skipped = ref [] in
  List.iter
    (fun item ->
      match initial_of item with
      | None -> ()
      | Some initial -> (
          match
            check_strong_item ~entries ~replicas:snapshot.replicas ~quiescent ~initial
              ~base:(base_of item)
              ~with_reads:(snapshot.mode = Config.Centralized) item
          with
          | `Ok n -> n_lin_ops := !n_lin_ops + n
          | `Skipped -> lin_skipped := item :: !lin_skipped
          | `Violation v -> add v))
    strong;

  (* 3. replica reads: session guarantee + reachability *)
  let n_replica_reads = ref 0 in
  let n_reads_skipped = ref 0 in
  (* Weak check for reads of 2PC items in autonomous mode: the value may
     include tentative deltas of prepared-undecided transactions (reads
     take no locks), so we only require it be explicable as initial plus
     *some* subset of the writes invoked before the read responded. *)
  let check_strong_read ~(read : History.entry) ~item ~initial ~value =
    match value with
    | None when List.mem (base_of item) snapshot.amnesiac ->
        (* an amnesiac base quarantines its non-regular items after
           protocol-log loss and answers None while (or instead of)
           repairing — unavailability by design, not a stale value. A read
           issued pre-crash can be retried into the quarantine window, so
           fire-time gating at the injector cannot fully prevent these. *)
        `Skipped
    | None -> `Violation (Stale_read { read; item; value = None })
    | Some v -> (
        let deltas =
          List.filter_map
            (fun (w : History.entry) ->
              match w.History.op with
              | History.Update { item = i; delta }
                when String.equal i item && w.History.inv_seq < read.History.resp_seq -> (
                  match w.History.resp with
                  | Some (History.Applied (Update.Immediate | Update.Central))
                  | Some (History.Rejected (Update.Unreachable | Update.Txn_aborted))
                  | None ->
                      Some delta
                  | Some _ -> None)
              | _ -> None)
            entries
        in
        match Model.subset_sums deltas with
        | None -> `Skipped
        | Some sums ->
            if List.mem (v - initial) sums then `Ok
            else `Violation (Stale_read { read; item; value = Some v }))
  in
  (* Weak check for reads of epoch items: a replica exposes the prefix of
     sealed epochs it has applied, and an intent the client saw rejected
     (or never saw answered) may still seal later — so the value need only
     be initial plus *some* subset of the epoch writes invoked before the
     read responded. [None] from a quarantined/amnesiac holder is
     unavailability, not staleness. *)
  let check_epoch_read ~(read : History.entry) ~item ~initial ~value ~self =
    match value with
    | None when List.mem self snapshot.amnesiac -> `Skipped
    | None -> `Violation (Stale_read { read; item; value = None })
    | Some v -> (
        let deltas =
          List.filter_map
            (fun (w : History.entry) ->
              match w.History.op with
              | History.Update { item = i; delta }
                when String.equal i item && w.History.inv_seq < read.History.resp_seq -> (
                  match w.History.resp with
                  | Some (History.Applied Update.Epoch)
                  | Some (History.Rejected Update.Unreachable)
                  | None ->
                      Some delta
                  | Some _ -> None)
              | _ -> None)
            entries
        in
        match Model.subset_sums deltas with
        | None -> `Skipped
        | Some sums ->
            if List.mem (v - initial) sums then `Ok
            else `Violation (Stale_read { read; item; value = Some v }))
  in
  List.iter
    (fun (e : History.entry) ->
      let examine ~item ~self =
        if snapshot.mode = Config.Autonomous then
          match (initial_of item, e.History.resp) with
          | Some initial, Some (History.Read_value value) -> (
              let result =
                if is_strong item then check_strong_read ~read:e ~item ~initial ~value
                else if is_epoch item then
                  check_epoch_read ~read:e ~item ~initial ~value ~self
                else check_replica_read ~streams ~initial ~read:e ~item ~value ~self
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
        if is_epoch item then begin
          (* Epoch items: every non-quarantined holder must expose the same
             sealed prefix, and the agreed value must be initial + every
             definitely-applied delta + some subset of the ambiguous ones
             (submissions rejected Unreachable or never answered — their
             intents may have sealed behind the client's back). Negative
             stock is legal by design: epoch writers never coordinate
             before committing. *)
          let values =
            match List.assoc_opt item snapshot.replicas with Some v -> v | None -> []
          in
          let definite = ref 0 in
          let ambiguous = ref [] in
          List.iter
            (fun (w : History.entry) ->
              match w.History.op with
              | History.Update { item = i; delta } when String.equal i item -> (
                  match w.History.resp with
                  | Some (History.Applied Update.Epoch) -> definite := !definite + delta
                  | Some (History.Rejected Update.Unreachable) | None ->
                      ambiguous := delta :: !ambiguous
                  | Some _ -> ())
              | _ -> ())
            entries;
          let floor = p.Product.initial_amount + !definite in
          match values with
          | [] -> ()
          | v0 :: rest ->
              if not (List.for_all (fun v -> v = v0) rest) then
                add (Divergence { item; values; expected = Some floor })
              else begin
                match v0 with
                | None -> add (Divergence { item; values; expected = Some floor })
                | Some v -> (
                    match Model.subset_sums !ambiguous with
                    | None -> () (* reachable set exceeded the cap: skip *)
                    | Some sums ->
                        if not (List.mem (v - floor) sums) then
                          add (Divergence { item; values; expected = Some floor }))
              end
        end
        else if not (is_strong item) then begin
          let values =
            match List.assoc_opt item snapshot.replicas with Some v -> v | None -> []
          in
          let expected =
            p.Product.initial_amount
            + List.fold_left (fun acc (_, _, d) -> acc + d) 0 (stream_for streams item)
          in
          List.iteri
            (fun site v ->
              match v with
              | Some v when v < 0 -> add (Negative_amount { item; site; value = v })
              | _ -> ())
            values;
          let agreed =
            match values with
            | [] -> true
            | v0 :: rest -> List.for_all (fun v -> v = v0) rest
          in
          if (not agreed) || List.exists (fun v -> v <> Some expected) values then
            add (Divergence { item; values; expected = Some expected })
        end
        else begin
          (* strong items: replicas must agree (the 2PC cohort is every
             site); the common value's legality is the virtual final read's
             job. In centralized mode only the base copy is maintained. *)
          match (snapshot.mode, List.assoc_opt item snapshot.replicas) with
          | Config.Autonomous, Some (v0 :: rest) when not (List.for_all (fun v -> v = v0) rest)
            ->
              add (Divergence { item; values = v0 :: rest; expected = None })
          | _ -> ()
        end)
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
        let stream = stream_for streams item in
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
