open Avdb_sim
open Avdb_net
open Avdb_store
open Avdb_txn
module C = Site_core

type role = Maker | Retailer

type shared = C.shared = {
  engine : Engine.t;
  rpc : (Protocol.request, Protocol.response, Protocol.notice) Rpc.t;
  config : Config.t;
  topology : Topology.t;
  mutable n_members : int;
  trace : Trace.t;
  tracer : Avdb_obs.Tracer.t;
}

(* One update class: its module, packed with its per-site state. *)
type cls = Cls : (module Update_class.S with type t = 'a) * 'a -> cls

(* What the checking function decided for one interest item at creation:
   the class that runs its updates, and whether it is a regular product
   (updated under AV — the stock table's [regular] column, and the items
   a batch may name). *)
type assignment = { cls : cls; regular : bool }

type t = {
  core : C.t;
  role : role;
  base_addr : Address.t;
  delay : Delay.t;
  immediate : Immediate.t;
  epoch : Epoch.t;
  classes : cls list;  (* lifecycle order: Immediate, Epoch, Delay *)
  class_of : (string, assignment) Hashtbl.t;
  (* The disk beneath each durable log: armed faults are applied to the
     synced image at crash time, and the next recovery reads back through
     the damage-classifying parser instead of trusting the in-memory log.
     Costs nothing while no fault is armed. *)
  wal_sink : Fault_sink.t;
  txn_sink : Fault_sink.t;
  (* Client operations still awaiting their outcome. Fencing would leave
     them unanswered across a crash (their continuations die with the
     incarnation), so [crash] fails each one explicitly - the submitting
     client is colocated with the site and observes the failure. *)
  inflight : (int, Update.outcome -> unit) Hashtbl.t;
  mutable next_op_seq : int;
}

let stock_table = C.stock_table
let history_table = C.history_table
let history_key = C.history_key
let addr t = t.core.C.addr
let role t = t.role
let base t = t.base_addr
let database t = t.core.C.db
let av_table t = Delay.av_table t.delay
let peer_view t = Delay.peer_view t.delay
let metrics t = t.core.C.metrics
let txn_log t = t.core.C.txn_log
let is_quarantined t ~item = C.is_quarantined t.core ~item

let quarantined_items t =
  Hashtbl.fold (fun item () acc -> item :: acc) t.core.C.quarantined []
  |> List.sort String.compare

let is_amnesiac t = t.core.C.amnesia

let arm_disk_fault t ~target spec =
  match target with
  | `Wal -> Fault_sink.arm t.wal_sink spec
  | `Txn -> Fault_sink.arm t.txn_sink spec

let config t = C.config t.core
let now t = C.now t.core
let is_down t = C.is_down t.core
let interested_in t ~item = C.interested_in t.core ~item
let amount_of t ~item = C.amount_of t.core ~item
let live_words t = Delay.live_words t.delay
let flush_sync ?force t = Delay.flush_sync ?force t.delay
let pending_sync_deltas t = Delay.pending_sync_deltas t.delay
let sync_version t ~item = Delay.sync_version t.delay ~item
let applied_sync_version t ~origin ~item = Delay.applied_sync_version t.delay ~origin ~item
let last_sync_apply t = Delay.last_sync_apply t.delay
let flush_epochs t = Epoch.flush_epochs t.epoch
let epoch_applied t ~item = Epoch.epoch_applied t.epoch ~item
let epoch_unsealed t = Epoch.backlog t.epoch
let backlog t = List.map (fun (Cls ((module K), st)) -> (K.name, K.backlog st)) t.classes
let assignment t ~item = Hashtbl.find t.class_of item

let track_inflight t finish =
  let op = t.next_op_seq in
  t.next_op_seq <- t.next_op_seq + 1;
  Hashtbl.replace t.inflight op finish;
  fun outcome ->
    if Hashtbl.mem t.inflight op then begin
      Hashtbl.remove t.inflight op;
      finish outcome
    end

(* --- Centralized baseline --- *)

let handle_central_update t ~item ~delta ~reply =
  let core = t.core in
  if not (Address.equal (addr t) (C.base_addr_for core ~item)) then
    reply (Protocol.Bad_request "central update at non-base site")
  else
    match amount_of t ~item with
    | None ->
        reply (Protocol.Central_ack { status = Protocol.Central_unknown_item; new_amount = 0 })
    | Some current ->
        if current + delta < 0 then
          reply
            (Protocol.Central_ack { status = Protocol.Central_insufficient; new_amount = current })
        else begin
          let txn = Database.begin_txn core.C.db in
          match Database.add_int txn ~table:stock_table ~key:item ~col:"amount" delta with
          | Ok new_amount ->
              Database.commit txn;
              C.record_history core ~item ~delta ~path:"central";
              reply (Protocol.Central_ack { status = Protocol.Central_applied; new_amount })
          | Error _ ->
              Database.abort txn;
              reply
                (Protocol.Central_ack
                   { status = Protocol.Central_insufficient; new_amount = current })
        end

let centralized_update t ~item ~delta ~finish =
  let core = t.core in
  let root = C.span_start core ~category:"update" "update.central" in
  C.span_field core root "item" item;
  C.span_field_int core root "delta" delta;
  let finish = C.finish_root core root finish in
  let base_addr = C.base_addr_for core ~item in
  if Address.equal (addr t) base_addr then
    match amount_of t ~item with
    | None -> finish (Update.Rejected (Update.Unknown_item item))
    | Some current ->
        if current + delta < 0 then finish (Update.Rejected Update.Insufficient_stock)
        else begin
          C.commit_delta core ~item ~delta ~path:"central" ~what:"Site.centralized_update";
          finish (Update.Applied Update.Central)
        end
  else
    Rpc.call (C.rpc core) ~src:(addr t) ~dst:base_addr ~timeout:(config t).Config.rpc_timeout
      ~retry:(C.retry_policy core) ~span:root
      (Protocol.Central_update { item; delta })
      (C.fenced core (fun response ->
           match response with
           | Ok (Protocol.Central_ack { status = Protocol.Central_applied; _ }) ->
               finish (Update.Applied Update.Central)
           | Ok (Protocol.Central_ack { status = Protocol.Central_insufficient; _ }) ->
               finish (Update.Rejected Update.Insufficient_stock)
           | Ok (Protocol.Central_ack { status = Protocol.Central_unknown_item; _ }) ->
               finish (Update.Rejected (Update.Unknown_item item))
           | Ok _ -> finish (Update.Rejected Update.Txn_aborted)
           | Error Rpc.Timeout -> finish (Update.Rejected Update.Unreachable)))

(* --- dynamic membership --- *)

(* Serve a joiner (or a repairing site) with the committed replica rows
   for the items it wants, each class adding what it has folded into
   them. *)
let handle_join t ~wanted ~reply =
  let want =
    match wanted with
    | None -> fun _ -> true
    | Some items ->
        let set = Hashtbl.create (List.length items) in
        List.iter (fun i -> Hashtbl.replace set i ()) items;
        fun item -> Hashtbl.mem set item
  in
  (* A quarantined row is exactly the state a joiner must never copy;
     send it donor-shopping instead. *)
  if Hashtbl.fold (fun item () acc -> acc || want item) t.core.C.quarantined false then
    reply (Protocol.Bad_request "item quarantined at donor")
  else begin
    let rows =
      Table.fold (Database.table t.core.C.db stock_table) ~init:[] ~f:(fun acc item row ->
          if want item then (item, Value.as_int row.(0), Value.as_bool row.(1)) :: acc else acc)
      |> List.rev
    in
    let snapshot =
      List.fold_left
        (fun snap (Cls ((module K), st)) -> K.join_snapshot st ~want snap)
        { Protocol.rows; sync_state = []; pending = []; epochs = [] }
        t.classes
    in
    reply (Protocol.Join_snapshot snapshot)
  end

(* Apply one join snapshot: overwrite the locally-bootstrapped rows with
   the live amounts, then let each class install its part. *)
let apply_join_snapshot t (snap : Protocol.snapshot) =
  let txn = Database.begin_txn t.core.C.db in
  let ok =
    List.for_all
      (fun (item, amount, _regular) ->
        Result.is_ok
          (Database.set_col txn ~table:stock_table ~key:item ~col:"amount" (Value.Int amount)))
      snap.Protocol.rows
  in
  if ok then begin
    Database.commit txn;
    List.iter (fun (Cls ((module K), st)) -> K.join_install st snap) t.classes;
    true
  end
  else begin
    Database.abort txn;
    false
  end

(* Fetch the initial data (the paper's initial delivery). Under full
   replication: one snapshot from the global base. Under partial
   replication there is no site that holds everything — the joiner groups
   its interest set by per-item base and fetches one scoped snapshot per
   distinct base, so join traffic is bounded by the interest set, never by
   the catalogue. *)
let join t callback =
  let core = t.core in
  let root = C.span_start core ~category:"membership" "membership.join" in
  let callback result =
    (match result with Error _ -> C.span_warn core root | Ok () -> ());
    C.span_end core root;
    callback result
  in
  let fetch ~dst ~wanted k =
    Rpc.call (C.rpc core) ~src:(addr t) ~dst ~timeout:(config t).Config.rpc_timeout
      ~retry:(C.retry_policy core) ~span:root
      (Protocol.Join_request { wanted })
      (C.fenced core (fun response ->
           match response with
           | Ok (Protocol.Join_snapshot snap) ->
               if apply_join_snapshot t snap then k (Ok (List.length snap.Protocol.rows))
               else k (Error Update.Txn_aborted)
           | Ok _ -> k (Error Update.Txn_aborted)
           | Error Rpc.Timeout -> k (Error Update.Unreachable)))
  in
  if Topology.is_full (C.topology core) then begin
    if Address.equal (addr t) t.base_addr then callback (Ok ())
    else
      fetch ~dst:t.base_addr ~wanted:None (function
        | Ok rows ->
            C.trace core ~category:"membership" "%a joined (%d items from base)" Address.pp
              (addr t) rows;
            callback (Ok ())
        | Error e -> callback (Error e))
  end
  else begin
    (* group this site's interest set (= its bootstrapped rows) by base *)
    let by_base = Hashtbl.create 8 in
    Table.fold (Database.table core.C.db stock_table) ~init:() ~f:(fun () item _ ->
        let b = C.base_addr_for core ~item in
        if not (Address.equal b (addr t)) then
          Hashtbl.replace by_base b
            (item :: Option.value ~default:[] (Hashtbl.find_opt by_base b)));
    let groups = Hashtbl.fold (fun b items acc -> (b, items) :: acc) by_base [] in
    match groups with
    | [] -> callback (Ok ())
    | _ ->
        let outstanding = ref (List.length groups) in
        let failed = ref None in
        let total_rows = ref 0 in
        List.iter
          (fun (dst, items) ->
            fetch ~dst ~wanted:(Some items) (fun result ->
                (match result with
                | Ok n -> total_rows := !total_rows + n
                | Error e -> if !failed = None then failed := Some e);
                decr outstanding;
                if !outstanding = 0 then
                  match !failed with
                  | Some e -> callback (Error e)
                  | None ->
                      C.trace core ~category:"membership" "%a joined (%d items from %d bases)"
                        Address.pp (addr t) !total_rows (List.length groups);
                      callback (Ok ())))
          groups
  end

(* --- public update entry points --- *)

let tracked_finish t callback =
  let started = now t in
  let m = metrics t in
  m.Update.Metrics.submitted <- m.Update.Metrics.submitted + 1;
  track_inflight t (fun outcome ->
      let result = { Update.outcome; latency = Time.diff (now t) started } in
      Update.Metrics.record (metrics t) result;
      callback result)

let submit_update t ~item ~delta callback =
  let finish = tracked_finish t callback in
  if is_down t then finish (Update.Rejected Update.Unreachable)
  else if not (C.item_known t.core ~item) then finish (Update.Rejected (Update.Unknown_item item))
  else if is_quarantined t ~item then
    (* under repair after storage damage: refuse rather than write
       through an untrusted replica — corruption may cost availability,
       never consistency *)
    finish (Update.Rejected Update.Unreachable)
  else
    match (config t).Config.mode with
    | Config.Centralized -> centralized_update t ~item ~delta ~finish
    | Config.Autonomous ->
        (* The checking function: the class fixed for the item at creation. *)
        let (Cls ((module K), st)) = (assignment t ~item).cls in
        K.submit st ~item ~delta ~finish

let submit_batch t ~deltas callback =
  let finish = tracked_finish t callback in
  if is_down t || (config t).Config.mode = Config.Centralized then
    finish (Update.Rejected Update.Unreachable)
  else begin
    let bad =
      List.find_map
        (fun (item, _) ->
          if not (C.item_known t.core ~item) then Some (Update.Unknown_item item)
          else if is_quarantined t ~item then Some Update.Unreachable
          else if not (assignment t ~item).regular then Some (Update.Not_regular item)
          else None)
        deltas
    in
    match bad with
    | Some reason -> finish (Update.Rejected reason)
    | None -> Delay.submit_batch t.delay ~deltas ~finish
  end

(* Reads with heterogeneous consistency: a local read is free and possibly
   stale (the retailer requirement); an authoritative read round-trips to
   the base replica (the maker requirement) and costs one correspondence. *)
let read_local t ~item =
  if is_quarantined t ~item then None
  else
    match amount_of t ~item with
    | Some v when Mutation.enabled Mutation.Forget_own_writes ->
        (* Mutation: subtract the site's own not-yet-flushed deltas — the
           replica "forgets" writes this session already committed. *)
        let pending = Option.value ~default:0 (List.assoc_opt item (pending_sync_deltas t)) in
        Some (v - pending)
    | r -> r

let read_authoritative t ~item callback =
  let core = t.core in
  let base_addr = C.base_addr_for core ~item in
  if is_down t then
    ignore
      (Engine.schedule (C.engine core) ~delay:Time.zero (fun () ->
           callback (Error Update.Unreachable)))
  else if Address.equal (addr t) base_addr then callback (Ok (amount_of t ~item))
  else begin
    let root = C.span_start core ~category:"read" "read.authoritative" in
    C.span_field core root "item" item;
    let callback result =
      (match result with Error _ -> C.span_warn core root | Ok _ -> ());
      C.span_end core root;
      callback result
    in
    Rpc.call (C.rpc core) ~src:(addr t) ~dst:base_addr ~timeout:(config t).Config.rpc_timeout
      ~retry:(C.retry_policy core) ~span:root
      (Protocol.Read_request { item })
      (C.fenced core (fun response ->
           match response with
           | Ok (Protocol.Read_value { amount }) -> callback (Ok amount)
           | Ok _ -> callback (Error Update.Txn_aborted)
           | Error Rpc.Timeout -> callback (Error Update.Unreachable)))
  end

let serve_read t ~item =
  if is_quarantined t ~item then
    (* quarantined replicas answer as if they held nothing: availability
       lost, consistency kept *)
    None
  else if Mutation.enabled Mutation.Stale_reads then
    (* Mutation: serve authoritative reads from a stale snapshot (the
       initial catalogue) instead of the live replica. *)
    List.find_map
      (fun p ->
        if String.equal p.Product.name item then Some p.Product.initial_amount else None)
      (config t).Config.products
  else amount_of t ~item

(* --- fault injection and corruption-aware recovery --- *)

let crash t =
  let core = t.core in
  C.trace core ~level:Trace.Warn ~category:"fault" "%a crashed" Address.pp (addr t);
  (* Capture what the disk held at the instant of death, with any armed
     faults applied. Guarded on [armed]: serialising the logs costs real
     work and a fault-free crash must stay free. *)
  if Fault_sink.armed t.wal_sink then
    Fault_sink.crash t.wal_sink ~segment_frames:(config t).Config.segment_frames
      ~text:(Wal.to_string (Database.wal core.C.db));
  if Fault_sink.armed t.txn_sink then
    Fault_sink.crash t.txn_sink ~segment_frames:(config t).Config.segment_frames
      ~text:(Txn_log.to_string core.C.txn_log);
  if C.tracing core then
    C.span_instant core ~status:Avdb_obs.Span.Warn ~category:"fault" "fault.crash"
      ~fields:[ ("epoch", string_of_int core.C.incarnation) ];
  (* Bumping the incarnation fences every closure created so far: timers
     and RPC continuations belonging to the dead incarnation become
     no-ops. *)
  core.C.incarnation <- core.C.incarnation + 1;
  Network.set_down (C.network core) (addr t) true;
  (* Replies the dead incarnation owed will never be sent. *)
  Rpc.end_incarnation (C.rpc core) (addr t);
  (* Fail client operations caught in flight: their fenced continuations
     will never fire, and the colocated client sees the crash directly. *)
  let pending =
    Hashtbl.fold (fun op finish acc -> (op, finish) :: acc) t.inflight []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  Hashtbl.reset t.inflight;
  List.iter (fun (_, finish) -> finish (Update.Rejected Update.Unreachable)) pending;
  List.iter (fun (Cls ((module K), st)) -> K.crash st) t.classes

let note_storage_damage t ~label (r : Segmented.report) =
  let core = t.core in
  let m = metrics t in
  m.Update.Metrics.checksum_failures <-
    m.Update.Metrics.checksum_failures + Segmented.checksum_failures r;
  m.Update.Metrics.segments_quarantined <-
    m.Update.Metrics.segments_quarantined
    + List.length
        (List.filter
           (function
             | Segmented.Corrupt _ | Segmented.Missing_segment _ -> true
             | Segmented.Torn_tail -> false)
           r.Segmented.damage);
  List.iter
    (fun d ->
      C.trace core ~level:Trace.Warn ~category:"storage" "%a %s: %a" Address.pp (addr t) label
        Segmented.pp_damage d)
    r.Segmented.damage;
  if C.tracing core then
    C.span_instant core ~status:Avdb_obs.Span.Warn ~category:"storage" "storage.damage"
      ~fields:[ ("log", label); ("lost_frames", string_of_int r.Segmented.lost_frames) ]

(* The interest items, in catalogue order, with their assignment. *)
let iter_assigned t f =
  List.iter
    (fun (product : Product.t) ->
      let item = product.Product.name in
      if interested_in t ~item then f product (assignment t ~item))
    (config t).Config.products

(* Rebuild replica rows lost with WAL damage from metadata that lives on
   other media and is exact by construction: each class says what its
   committed row is ({!Update_class.S.rebuild_row}). Rows whose WAL state
   survived recompute to their current value, so running this over the
   whole interest set is idempotent. Assumes autonomous mode: the
   centralized baseline's write path bypasses the sync counters, so its
   base has no local reconstruction story. *)
let rebuild_lost_rows t ~trust_txn_log =
  let db = t.core.C.db in
  if Database.table_opt db stock_table = None then
    ignore (Database.create_table db ~name:stock_table C.stock_schema);
  if (config t).Config.record_history && Database.table_opt db history_table = None then
    ignore (Database.create_table db ~name:history_table C.history_schema);
  let txn = Database.begin_txn db in
  iter_assigned t (fun product { cls = Cls ((module K), st); regular } ->
      let item = product.Product.name in
      let expect =
        K.rebuild_row st ~trust_txn_log ~item ~initial:product.Product.initial_amount
      in
      let written =
        match amount_of t ~item with
        | Some v when v = expect -> Ok ()
        | Some _ ->
            Database.set_col txn ~table:stock_table ~key:item ~col:"amount" (Value.Int expect)
        | None ->
            Database.insert txn ~table:stock_table ~key:item
              [| Value.Int expect; Value.Bool regular |]
      in
      match written with Ok () -> () | Error e -> failwith ("Site.recover rebuild: " ^ e));
  Database.commit txn

(* Protocol-log data loss taints every item whose correctness depends on
   that log. A lost in-doubt entry means a decided Commit could arrive
   that this site no longer knows how to apply, so the rows cannot be
   trusted even when the WAL survived. *)
let quarantine_tainted t =
  let quarantined = t.core.C.quarantined in
  iter_assigned t (fun product { cls = Cls ((module K), _); _ } ->
      if K.tainted_by_log_loss then Hashtbl.replace quarantined product.Product.name ());
  if Hashtbl.length quarantined > 0 then
    C.trace t.core ~level:Trace.Warn ~category:"storage"
      "%a quarantined %d items after protocol-log loss" Address.pp (addr t)
      (Hashtbl.length quarantined)

(* Remote repair: fetch a committed-state snapshot of each quarantined
   item from a donor — the item's base first, then the other subscribers
   in rotation — install it, then let the item's class finish (a 2PC item
   watches the donor's in-flight transactions on it resolve, applying each
   commit exactly once) before lifting the quarantine. New 2PC on a
   quarantined item cannot commit meanwhile (this site votes Refuse), and
   every pre-crash prepare has landed before the first snapshot (repairs
   start after the longest 2PC timeout), so the snapshot plus its pending
   list is a complete account of the item. *)
let finish_repair t ~item =
  let core = t.core in
  if Hashtbl.mem core.C.quarantined item then begin
    Hashtbl.remove core.C.quarantined item;
    let m = metrics t in
    m.Update.Metrics.repairs <- m.Update.Metrics.repairs + 1;
    C.trace core ~category:"storage" "%a repaired %s (quarantine lifted)" Address.pp (addr t)
      item;
    if C.tracing core then
      C.span_instant core ~category:"storage" "storage.repair" ~fields:[ ("item", item) ]
  end

let rec repair_item t ~item ~attempt =
  let core = t.core in
  if is_down t || not (is_quarantined t ~item) then ()
  else if attempt >= C.max_repair_attempts then
    C.trace core ~level:Trace.Warn ~category:"storage"
      "%a repair of %s gave up after %d attempts; stays quarantined" Address.pp (addr t) item
      attempt
  else begin
    let donors =
      let b = C.base_addr_for core ~item in
      let others = List.filter (fun a -> not (Address.equal a b)) (C.peers_for core ~item) in
      if Address.equal b (addr t) then others else b :: others
    in
    match donors with
    | [] ->
        C.trace core ~level:Trace.Warn ~category:"storage"
          "%a has no donor for %s (sole subscriber); stays quarantined" Address.pp (addr t) item
    | _ ->
        let donor = List.nth donors (attempt mod List.length donors) in
        let sp = C.span_start core ~category:"storage" "storage.repair_fetch" in
        C.span_field core sp "item" item;
        C.span_field core sp "donor" (Address.to_string donor);
        let retry () =
          C.span_warn core sp;
          C.span_end core sp;
          C.after core ~delay:(config t).Config.repair_interval (fun () ->
              repair_item t ~item ~attempt:(attempt + 1))
        in
        Rpc.call (C.rpc core) ~src:(addr t) ~dst:donor ~timeout:(config t).Config.rpc_timeout
          ~span:sp
          (Protocol.Join_request { wanted = Some [ item ] })
          (C.fenced core (fun response ->
               match response with
               | Ok (Protocol.Join_snapshot snap as resp) -> (
                   let m = metrics t in
                   m.Update.Metrics.repair_bytes <-
                     m.Update.Metrics.repair_bytes + Protocol.wire_size_response resp;
                   C.span_end core sp;
                   match snap.Protocol.rows with
                   | [ (_, amount, _) ] ->
                       let txn = Database.begin_txn core.C.db in
                       (match
                          Database.set_col txn ~table:stock_table ~key:item ~col:"amount"
                            (Value.Int amount)
                        with
                       | Ok () -> Database.commit txn
                       | Error e ->
                           Database.abort txn;
                           failwith ("Site.repair install: " ^ e));
                       let (Cls ((module K), st)) = (assignment t ~item).cls in
                       K.repair_install st ~item ~donor snap ~k:(fun () -> finish_repair t ~item)
                   | _ ->
                       C.after core ~delay:(config t).Config.repair_interval (fun () ->
                           repair_item t ~item ~attempt:(attempt + 1)))
               (* [Bad_request]: the donor's own copy is quarantined; rotate *)
               | Ok _ | Error _ -> retry ()))
  end

let schedule_repairs t =
  let quarantined = t.core.C.quarantined in
  if Hashtbl.length quarantined > 0 && (config t).Config.mode = Config.Autonomous then begin
    (* Wait out the longest 2PC round first: prepares sent before the
       crash run without retries, so by then the donor holds every
       pre-crash transaction either in its committed row or in its
       pending list — nothing slips between snapshot and watches. *)
    let cfg = config t in
    let delay =
      Time.of_ms
        (Float.max (Time.to_ms cfg.Config.prepare_timeout) (Time.to_ms cfg.Config.ack_timeout))
    in
    Hashtbl.iter
      (fun item () -> C.after t.core ~delay (fun () -> repair_item t ~item ~attempt:0))
      quarantined
  end

(* Read a log image back through the damage-classifying parser: [None]
   when no fault was armed, else the recovered prefix and whether synced
   records were lost. *)
let recovered_log t ~label sink ~parse ~empty =
  match Fault_sink.take_recovery sink with
  | None -> None
  | Some report ->
      note_storage_damage t ~label report;
      let lost = Segmented.data_loss report in
      Some
        (match parse (String.concat "\n" report.Segmented.payloads) with
        | Ok log -> (log, lost)
        | Error c ->
            (* a recovered prefix re-parses by construction; only a CRC
               collision hiding damage can land here *)
            C.trace t.core ~level:Trace.Warn ~category:"storage" "%a %s prefix unreadable: %a"
              Address.pp (addr t) label Corruption.pp c;
            (empty (), true))

let recover t =
  let core = t.core in
  (* Restart: committed state only, from the write-ahead log — read back
     through the faultable disk when faults were armed. In-flight
     participant transactions, locks, holds and timers die with the
     process; bump the incarnation again so even closures created while
     down (there should be none, but belt and braces) cannot fire. *)
  core.C.incarnation <- core.C.incarnation + 1;
  let name = Database.name core.C.db in
  let wal = recovered_log t ~label:"wal" t.wal_sink ~parse:Wal.of_string ~empty:Wal.create in
  let txn =
    recovered_log t ~label:"txn-log" t.txn_sink ~parse:Txn_log.of_string ~empty:Txn_log.create
  in
  let wal_loss =
    match wal with
    | None ->
        core.C.db <- Database.recover ~name (Database.wal core.C.db);
        false
    | Some (wal, lost) ->
        core.C.db <- Database.recover ~name wal;
        lost
  in
  (match txn with
  | None -> ()
  | Some (log, lost) ->
      core.C.txn_log <- log;
      if lost then begin
        (* Synced protocol records are gone: "no entry" stops implying
           "never happened", forever — later recoveries cannot un-lose
           them. Every tainted interest item is suspect. *)
        core.C.amnesia <- true;
        quarantine_tainted t
      end);
  if wal_loss then begin
    (* Under amnesia — even from an *earlier* incarnation — the protocol
       log no longer bounds the committed non-regular deltas, so a lost
       WAL row cannot be reconstructed locally: quarantine and repair
       remotely instead. Without amnesia the rebuild is exact. *)
    if core.C.amnesia then quarantine_tainted t;
    rebuild_lost_rows t ~trust_txn_log:(not core.C.amnesia)
  end;
  (* Resume the audit sequence after the recovered rows to keep keys
     unique (history rows are never deleted). *)
  (match Database.table_opt core.C.db history_table with
  | Some tbl -> core.C.history_seq <- Table.size tbl
  | None -> ());
  Network.set_down (C.network core) (addr t) false;
  (* Amnesia txid floor: surviving entries no longer bound every txid we
     ever issued, so reserve a fresh range per incarnation instead of
     risking reuse of a lost one. *)
  if core.C.amnesia then
    core.C.next_txn_seq <- max core.C.next_txn_seq (core.C.incarnation * 1000);
  (* Each class re-derives its state from the durable logs — after the
     network is back up, so a replay can speak to its peers. *)
  List.iter (fun (Cls ((module K), st)) -> K.recover st) t.classes;
  (* Quarantined items — fresh this recovery or left by an interrupted
     repair — go back under repair. *)
  schedule_repairs t;
  if C.tracing core then
    C.span_instant core ~category:"fault" "fault.recover"
      ~fields:[ ("epoch", string_of_int core.C.incarnation) ];
  C.trace core ~category:"fault" "%a recovered (WAL + protocol log replayed)" Address.pp (addr t)

(* --- construction --- *)

let create shared ~addr ~av_init =
  let config = shared.config in
  if shared.n_members < 1 then invalid_arg "Site.create: empty cluster";
  let db = Database.create ~name:(Address.to_string addr) () in
  ignore (Database.create_table db ~name:stock_table C.stock_schema);
  if config.Config.record_history then
    ignore (Database.create_table db ~name:history_table C.history_schema);
  let core = C.create shared ~addr ~db in
  let delay = Delay.create core ~av_init in
  let immediate = Immediate.create core in
  let epoch = Epoch.create core in
  let delay_cls = Cls ((module Delay), delay) in
  let immediate_cls = Cls ((module Immediate), immediate) in
  let epoch_cls = Cls ((module Epoch), epoch) in
  let regular = { cls = delay_cls; regular = true }
  and non_regular = { cls = immediate_cls; regular = false }
  and epoch_class = { cls = epoch_cls; regular = false } in
  (* The checking function, decided once per item. In autonomous mode
     [Regular] is exactly "AV defined": the cluster defines AV (possibly
     0) for every regular interest item and nothing else. *)
  let assign (product : Product.t) =
    match product.Product.kind with
    | Product.Regular -> regular
    | Product.Non_regular -> non_regular
    | Product.Epoch -> epoch_class
  in
  let class_of = Hashtbl.create 16 in
  (* Partial replication starts here: only the products this site
     subscribes to get a local row and a class — everything else is
     neither stored nor tracked, so the site's live state is bounded by
     its interest set. *)
  let txn = Database.begin_txn db in
  List.iter
    (fun (product : Product.t) ->
      let item = product.Product.name in
      if C.interested_in core ~item then begin
        let a = assign product in
        Hashtbl.replace class_of item a;
        (let (Cls ((module K), st)) = a.cls in
         K.adopt st ~item);
        match
          Database.insert txn ~table:stock_table ~key:item
            [| Value.Int product.Product.initial_amount; Value.Bool a.regular |]
        with
        | Ok () -> ()
        | Error e -> failwith ("Site.create: " ^ e)
      end)
    config.Config.products;
  Database.commit txn;
  let base_addr = Address.of_int 0 in
  let t =
    {
      core;
      role = (if Address.equal addr base_addr then Maker else Retailer);
      base_addr;
      delay;
      immediate;
      epoch;
      classes = [ immediate_cls; epoch_cls; delay_cls ];
      class_of;
      wal_sink = Fault_sink.create ();
      txn_sink = Fault_sink.create ();
      inflight = Hashtbl.create 8;
      next_op_seq = 0;
    }
  in
  (* The single dispatch: each request goes to the protocol that owns it. *)
  Rpc.serve shared.rpc addr
    ~handler:(fun ~src ~span request ~reply ->
      match request with
      | Protocol.Av_request _ -> Delay.serve delay ~src ~span request ~reply
      | Protocol.Prepare _ | Protocol.Decision _ | Protocol.Query_decision _
      | Protocol.Peer_decision_query _ ->
          Immediate.serve immediate ~src ~span request ~reply
      | Protocol.Epoch_intent _ | Protocol.Epoch_propose _ | Protocol.Epoch_commit _
      | Protocol.Epoch_pull _ | Protocol.Epoch_collect _ ->
          Epoch.serve epoch ~src ~span request ~reply
      | Protocol.Central_update { item; delta } -> handle_central_update t ~item ~delta ~reply
      | Protocol.Read_request { item } ->
          reply (Protocol.Read_value { amount = serve_read t ~item })
      | Protocol.Join_request { wanted } -> handle_join t ~wanted ~reply)
    ~notice:(fun ~src notice -> Delay.notice delay ~src notice)
    ();
  t
