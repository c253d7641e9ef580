(* A reference oracle for the differential properties in test_check.ml.

   This is the checker's original, deliberately naive algorithm: reachable
   sets are lists deduplicated through a Hashtbl, and every replica read
   rescans the whole history for its item's writes and rebuilds its
   reachable set from nothing. It is slow but obviously faithful to the
   rules in checker.mli, so the production checker must agree with it
   verdict for verdict, in order. *)

open Avdb_core
open Avdb_check

(* --- reachable sets as lists ------------------------------------------- *)

let dedup l =
  let tbl = Hashtbl.create (List.length l + 1) in
  List.filter
    (fun x ->
      if Hashtbl.mem tbl x then false
      else begin
        Hashtbl.add tbl x ();
        true
      end)
    l

let sum_set ?(cap = 200_000) lists =
  let rec go acc = function
    | [] -> Some acc
    | choices :: rest ->
        let next = dedup (List.concat_map (fun x -> List.map (fun c -> x + c) choices) acc) in
        if List.length next > cap then None else go next rest
  in
  go [ 0 ] lists

let subset_sums ?cap deltas = sum_set ?cap (List.map (fun d -> [ 0; d ]) deltas)

(* --- the checker -------------------------------------------------------- *)

let strong_items mode products =
  List.filter_map
    (fun (p : Product.t) ->
      match mode with
      | Config.Centralized -> Some p.Product.name
      | Config.Autonomous ->
          if Product.is_regular p || Product.is_epoch p then None else Some p.Product.name)
    products

let epoch_items mode products =
  match mode with
  | Config.Centralized -> []
  | Config.Autonomous ->
      List.filter_map
        (fun (p : Product.t) -> if Product.is_epoch p then Some p.Product.name else None)
        products

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
      | History.Update { item; delta }, Some (History.Applied (Update.Local | Update.With_transfer _))
        ->
          push item e.History.site e.History.resp_seq delta
      | History.Batch { deltas }, Some (History.Applied (Update.Local | Update.With_transfer _)) ->
          List.iter (fun (item, delta) -> push item e.History.site e.History.resp_seq delta) deltas
      | _ -> ())
    entries;
  Hashtbl.fold
    (fun item r acc ->
      (item, List.sort (fun (_, a, _) (_, b, _) -> compare a b) (List.rev !r)) :: acc)
    tbl []

let stream_for streams item = match List.assoc_opt item streams with Some l -> l | None -> []

type sem = Write of int | Failed_write of int | Read of int | Final of int
type lop = { sem : sem; inv : int; resp : int; definite : bool; entry : History.entry option }

let step value op =
  match op.sem with
  | Write d -> if value + d < 0 then None else Some (value + d)
  | Failed_write d -> if value + d < 0 then Some value else None
  | Read v | Final v -> if value = v then Some value else None

let linearizable ~initial ops =
  let n = Array.length ops in
  let full = ref 0 in
  Array.iteri (fun i op -> if op.definite then full := !full lor (1 lsl i)) ops;
  let full = !full in
  let memo = Hashtbl.create 97 in
  let rec go taken value =
    if taken land full = full then true
    else if Hashtbl.mem memo taken then false
    else begin
      let min_resp = ref max_int in
      for i = 0 to n - 1 do
        if taken land (1 lsl i) = 0 && ops.(i).resp < !min_resp then min_resp := ops.(i).resp
      done;
      let found = ref false in
      for j = 0 to n - 1 do
        if (not !found) && taken land (1 lsl j) = 0 && ops.(j).inv < !min_resp then
          match step value ops.(j) with
          | Some value' -> if go (taken lor (1 lsl j)) value' then found := true
          | None -> ()
      done;
      if not !found then Hashtbl.add memo taken ();
      !found
    end
  in
  go 0 initial

let minimal_prefix ~initial ops =
  let definite, ambiguous = List.partition (fun o -> o.definite) ops in
  let definite = List.sort (fun a b -> compare (a.resp, a.inv) (b.resp, b.inv)) definite in
  let rec go k =
    let prefix = List.filteri (fun i _ -> i < k) definite @ ambiguous in
    if not (linearizable ~initial (Array.of_list prefix)) then prefix
    else if k >= List.length definite then ops
    else go (k + 1)
  in
  go 1

let strong_ops_for_item entries ~item ~base ~with_reads =
  let op (e : History.entry) sem ~resp ~definite =
    Some { sem; inv = e.History.inv_seq; resp; definite; entry = Some e }
  in
  List.filter_map
    (fun (e : History.entry) ->
      match (e.History.op, e.History.resp) with
      | History.Update { item = i; delta }, resp when String.equal i item -> (
          match resp with
          | Some (History.Applied (Update.Immediate | Update.Central)) ->
              op e (Write delta) ~resp:e.History.resp_seq ~definite:true
          | Some (History.Rejected Update.Insufficient_stock) ->
              op e (Failed_write delta) ~resp:e.History.resp_seq ~definite:true
          | Some (History.Rejected Update.Unreachable) | None ->
              op e (Write delta) ~resp:max_int ~definite:false
          | Some _ -> None)
      | History.Read_auth { item = i }, Some (History.Read_value v)
        when with_reads && String.equal i item ->
          op e (Read (Option.value ~default:min_int v)) ~resp:e.History.resp_seq ~definite:true
      | History.Read_local { item = i }, Some (History.Read_value v)
        when with_reads && String.equal i item && e.History.site = base ->
          op e (Read (Option.value ~default:min_int v)) ~resp:e.History.resp_seq ~definite:true
      | _ -> None)
    entries

let check_strong_item ~entries ~replicas ~quiescent ~initial ~base ~with_reads item =
  let ops = strong_ops_for_item entries ~item ~base ~with_reads in
  let ops =
    match (quiescent, List.assoc_opt item replicas) with
    | true, Some (Some v :: _) ->
        { sem = Final v; inv = max_int - 1; resp = max_int; definite = true; entry = None } :: ops
    | _ -> ops
  in
  if List.length ops > Checker.max_lin_ops then `Skipped
  else if linearizable ~initial (Array.of_list ops) then `Ok (List.length ops)
  else
    `Violation
      (Checker.Non_linearizable
         { item; ops = List.filter_map (fun o -> o.entry) (minimal_prefix ~initial ops) })

let check_replica_read ~streams ~initial ~(read : History.entry) ~item ~value ~self =
  match value with
  | None -> `Violation (Checker.Stale_read { read; item; value = None })
  | Some v -> (
      let stream = stream_for streams item in
      let origins = List.sort_uniq compare (List.map (fun (site, _, _) -> site) stream) in
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
                List.length (List.filter (fun (r, _) -> r < read.History.inv_seq) deltas)
              else 0
            in
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
        `Violation (Checker.Stale_read { read; item; value = Some v })
      else
        match sum_set choice_lists with
        | None -> `Skipped
        | Some reachable ->
            if List.mem (v - initial) reachable then `Ok
            else `Violation (Checker.Stale_read { read; item; value = Some v }))

(* Weak check of a strong or epoch read: initial + some subset of the
   item's qualifying writes invoked before the read responded. *)
let subset_read ~entries ~qualifies ~(read : History.entry) ~item ~initial v =
  let deltas =
    List.filter_map
      (fun (w : History.entry) ->
        match w.History.op with
        | History.Update { item = i; delta }
          when String.equal i item && w.History.inv_seq < read.History.resp_seq
               && qualifies w.History.resp ->
            Some delta
        | _ -> None)
      entries
  in
  match subset_sums deltas with
  | None -> `Skipped
  | Some sums ->
      if List.mem (v - initial) sums then `Ok
      else `Violation (Checker.Stale_read { read; item; value = Some v })

let strong_qualifies = function
  | Some (History.Applied (Update.Immediate | Update.Central))
  | Some (History.Rejected (Update.Unreachable | Update.Txn_aborted))
  | None ->
      true
  | Some _ -> false

let epoch_qualifies = function
  | Some (History.Applied Update.Epoch) | Some (History.Rejected Update.Unreachable) | None -> true
  | Some _ -> false

let check ?(quiescent = true) ~history (snapshot : Checker.snapshot) =
  let entries = History.entries history in
  let violations = ref [] in
  let add v = violations := v :: !violations in
  let strong = strong_items snapshot.Checker.mode snapshot.Checker.products in
  let is_strong item = List.mem item strong in
  let epochs = epoch_items snapshot.Checker.mode snapshot.Checker.products in
  let is_epoch item = List.mem item epochs in
  let initial_of item =
    List.find_opt (fun (p : Product.t) -> String.equal p.Product.name item) snapshot.Checker.products
    |> Option.map (fun (p : Product.t) -> p.Product.initial_amount)
  in
  let streams = delay_streams entries in
  let base_of item = Option.value ~default:0 (List.assoc_opt item snapshot.Checker.bases) in
  List.iter
    (fun (e : History.entry) ->
      if e.History.n_responses > 1 then add (Checker.Double_response { entry = e }))
    entries;
  let n_lin_ops = ref 0 and lin_skipped = ref [] in
  List.iter
    (fun item ->
      match initial_of item with
      | None -> ()
      | Some initial -> (
          match
            check_strong_item ~entries ~replicas:snapshot.Checker.replicas ~quiescent ~initial
              ~base:(base_of item)
              ~with_reads:(snapshot.Checker.mode = Config.Centralized)
              item
          with
          | `Ok n -> n_lin_ops := !n_lin_ops + n
          | `Skipped -> lin_skipped := item :: !lin_skipped
          | `Violation v -> add v))
    strong;
  let n_replica_reads = ref 0 and n_reads_skipped = ref 0 in
  let amnesiac site = List.mem site snapshot.Checker.amnesiac in
  List.iter
    (fun (e : History.entry) ->
      let examine ~item ~self =
        if snapshot.Checker.mode = Config.Autonomous then
          match (initial_of item, e.History.resp) with
          | Some initial, Some (History.Read_value value) -> (
              let weak ~qualifies ~unavailable =
                match value with
                | None when unavailable -> `Skipped
                | None -> `Violation (Checker.Stale_read { read = e; item; value = None })
                | Some v -> subset_read ~entries ~qualifies ~read:e ~item ~initial v
              in
              let result =
                if is_strong item then
                  weak ~qualifies:strong_qualifies ~unavailable:(amnesiac (base_of item))
                else if is_epoch item then
                  weak ~qualifies:epoch_qualifies ~unavailable:(amnesiac self)
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
    List.iter
      (fun (p : Product.t) ->
        let item = p.Product.name in
        let values =
          match List.assoc_opt item snapshot.Checker.replicas with Some v -> v | None -> []
        in
        if is_epoch item then begin
          let definite = ref 0 and ambiguous = ref [] in
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
          let diverged = Checker.Divergence { item; values; expected = Some floor } in
          match values with
          | [] -> ()
          | v0 :: rest when not (List.for_all (fun v -> v = v0) rest) -> add diverged
          | None :: _ -> add diverged
          | Some v :: _ -> (
              match subset_sums !ambiguous with
              | None -> ()
              | Some sums -> if not (List.mem (v - floor) sums) then add diverged)
        end
        else if not (is_strong item) then begin
          let expected =
            p.Product.initial_amount
            + List.fold_left (fun acc (_, _, d) -> acc + d) 0 (stream_for streams item)
          in
          List.iteri
            (fun site v ->
              match v with
              | Some v when v < 0 -> add (Checker.Negative_amount { item; site; value = v })
              | _ -> ())
            values;
          let agreed =
            match values with [] -> true | v0 :: rest -> List.for_all (fun v -> v = v0) rest
          in
          if (not agreed) || List.exists (fun v -> v <> Some expected) values then
            add (Checker.Divergence { item; values; expected = Some expected })
        end
        else
          match (snapshot.Checker.mode, values) with
          | Config.Autonomous, v0 :: rest when not (List.for_all (fun v -> v = v0) rest) ->
              add (Checker.Divergence { item; values; expected = None })
          | _ -> ())
      snapshot.Checker.products;
    let total_deficit = ref 0 in
    List.iter
      (fun (item, books) ->
        let d = Model.deficit books in
        total_deficit := !total_deficit + d;
        let imbalance message = add (Checker.Av_imbalance { item = Some item; message }) in
        if d < 0 then
          imbalance
            (Printf.sprintf
               "volume created out of thin air: defined %d + minted %d - consumed %d - live %d \
                = %d"
               books.Model.defined books.Model.minted books.Model.consumed books.Model.live d);
        let stream = stream_for streams item in
        let minted = List.fold_left (fun acc (_, _, d) -> if d > 0 then acc + d else acc) 0 stream in
        let consumed =
          List.fold_left (fun acc (_, _, d) -> if d < 0 then acc - d else acc) 0 stream
        in
        if books.Model.minted <> minted then
          imbalance
            (Printf.sprintf
               "ledger minted %d but the history committed +%d of positive Delay Updates"
               books.Model.minted minted);
        if books.Model.consumed <> consumed then
          imbalance
            (Printf.sprintf
               "ledger consumed %d but the history committed -%d of negative Delay Updates"
               books.Model.consumed consumed))
      snapshot.Checker.books;
    if snapshot.Checker.books <> [] then begin
      let leaked = snapshot.Checker.granted - snapshot.Checker.received in
      if leaked < 0 then
        add
          (Checker.Av_imbalance
             {
               item = None;
               message =
                 Printf.sprintf
                   "more AV received (%d) than granted (%d): volume conjured in flight"
                   snapshot.Checker.received snapshot.Checker.granted;
             })
      else if !total_deficit <> leaked then
        add
          (Checker.Av_imbalance
             {
               item = None;
               message =
                 Printf.sprintf
                   "books are short %d units overall but the measured in-flight grant leak is \
                    %d (granted %d - received %d)"
                   !total_deficit leaked snapshot.Checker.granted snapshot.Checker.received;
             })
    end
  end;
  {
    Checker.violations = List.rev !violations;
    stats =
      {
        Checker.n_entries = History.length history;
        n_strong_items = List.length strong - List.length !lin_skipped;
        n_lin_ops = !n_lin_ops;
        lin_skipped = List.rev !lin_skipped;
        n_replica_reads = !n_replica_reads;
        n_reads_skipped = !n_reads_skipped;
      };
  }
