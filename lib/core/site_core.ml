open Avdb_sim
open Avdb_net
open Avdb_store
open Avdb_txn

type shared = {
  engine : Engine.t;
  rpc : (Protocol.request, Protocol.response, Protocol.notice) Rpc.t;
  config : Config.t;
  topology : Topology.t;
      (* per-item bases, interest sets and the AV hierarchy; one copy for
         the whole cluster *)
  mutable n_members : int;
      (* membership is dense (site i has address i), so one counter
         replaces the old address list — a join is O(1), not an O(N) list
         copy *)
  trace : Trace.t;
  tracer : Avdb_obs.Tracer.t;
}

type t = {
  shared : shared;
  addr : Address.t;
  mutable db : Database.t;
  mutable txn_log : Txn_log.t;
  metrics : Update.Metrics.t;
  (* Items whose local replica can no longer be trusted after storage
     damage: they refuse prepares, reject updates and hide from reads
     until repaired from a donor (or forever, when none exists). Trusted
     in-memory metadata, like the sync counters: survives crashes, so an
     interrupted repair resumes at the next recovery. *)
  quarantined : (string, unit) Hashtbl.t;
  (* Set (stickily) once the protocol log loses synced records: from then
     on "no log entry" no longer implies "never happened", so presumed
     abort is off the table and lost txids answer [No_record]. *)
  mutable amnesia : bool;
  (* [peers_for ~item] memo, stamped with the topology version so joins
     invalidate it without any broadcast. Only populated under partial
     replication: its size is bounded by the site's interest set. *)
  peer_cache : (string, int * Address.t list) Hashtbl.t;
  mutable history_seq : int;
  (* One txid allocator for 2PC transactions and epoch intents alike. *)
  mutable next_txn_seq : int;
  (* Incarnation number, bumped by both crash and recover: every closure
     the site hands to the engine or the RPC layer is fenced on the
     incarnation it was created under, so a continuation scheduled before
     a crash can never mutate post-recovery state. *)
  mutable incarnation : int;
}

let stock_table = "stock"
let history_table = "history"

let stock_schema =
  Schema.create
    [
      { Schema.name = "amount"; ty = Value.Tint };
      { Schema.name = "regular"; ty = Value.Tbool };
    ]

let history_schema =
  Schema.create
    [
      { Schema.name = "item"; ty = Value.Tstr };
      { Schema.name = "delta"; ty = Value.Tint };
      { Schema.name = "path"; ty = Value.Tstr };
    ]

let create shared ~addr ~db =
  {
    shared;
    addr;
    db;
    txn_log = Txn_log.create ();
    metrics = Update.Metrics.create ();
    quarantined = Hashtbl.create 4;
    amnesia = false;
    peer_cache = Hashtbl.create 16;
    history_seq = 0;
    next_txn_seq = 0;
    incarnation = 0;
  }

let network t = Rpc.network t.shared.rpc
let engine t = t.shared.engine
let config t = t.shared.config
let rpc t = t.shared.rpc
let now t = Engine.now (engine t)
let is_down t = Network.is_down (network t) t.addr
let site_index t = Address.to_int t.addr
let topology t = t.shared.topology
let is_self t a = Address.equal a t.addr
let is_quarantined t ~item = Hashtbl.mem t.quarantined item

let peers t =
  List.filter_map
    (fun i -> if i = site_index t then None else Some (Address.of_int i))
    (List.init t.shared.n_members (fun i -> i))

(* --- per-item topology routing --- *)

let base_addr_for t ~item = Address.of_int (Topology.base_index (topology t) ~item)
let interested_in t ~item = Topology.interested (topology t) ~site:(site_index t) ~item

(* The item's subscribers minus this site: the AV-selection candidates,
   the Immediate Update cohort, the sync audience and the repair donors.
   Cached per item under partial replication (bounded by the interest
   set); computed directly under full replication, where caching every
   peer list would cost O(items × N) per site. *)
let peers_for t ~item =
  let topo = topology t in
  if Topology.is_full topo then peers t
  else begin
    let v = Topology.version topo in
    match Hashtbl.find_opt t.peer_cache item with
    | Some (v', l) when v' = v -> l
    | _ ->
        let l =
          List.filter_map
            (fun i -> if i = site_index t then None else Some (Address.of_int i))
            (Topology.subscribers topo ~item)
        in
        Hashtbl.replace t.peer_cache item (v, l);
        l
  end

(* [Trace.recordf] renders lazily: every [%a] argument passed here must be
   immutable (addresses, decisions, reasons, damage reports). *)
let trace t ?level ~category fmt =
  Trace.recordf t.shared.trace ~at:(now t) ?level ~category fmt

(* Causal spans, always attributed to this site at the current sim-time.
   Parents are either local enclosing spans or the server-side RPC span
   handed to request handlers (the caller's context across the wire). *)
let span_start t ?parent ~category name =
  Avdb_obs.Tracer.start t.shared.tracer ~at:(now t) ?parent
    ~site:(Address.to_int t.addr) ~category name

let span_field t sp key value = Avdb_obs.Tracer.set_field t.shared.tracer sp key value
let span_warn t sp = Avdb_obs.Tracer.warn t.shared.tracer sp
let span_end t sp = Avdb_obs.Tracer.finish t.shared.tracer ~at:(now t) sp

(* Hot paths test this before building span arguments (field strings,
   field lists), so a disabled tracer costs one load and branch. *)
let tracing t = Avdb_obs.Tracer.enabled t.shared.tracer

let span_field_int t sp key n =
  Avdb_obs.Tracer.set_field_int t.shared.tracer sp key n

let span_instant t ?parent ?status ?fields ~category name =
  ignore
    (Avdb_obs.Tracer.instant t.shared.tracer ~at:(now t) ?parent
       ~site:(Address.to_int t.addr) ?status ?fields ~category name)

(* Close an update's root span with its outcome: warn on rejection. *)
let finish_root t root finish outcome =
  (match outcome with
  | Update.Rejected _ -> span_warn t root
  | Update.Applied _ -> ());
  span_end t root;
  finish outcome

(* Incarnation fence: [fenced t k] is [k] while the site stays in its
   current incarnation and a no-op after any crash or recovery in
   between. *)
let fenced t k =
  let incarnation = t.incarnation in
  fun x -> if t.incarnation = incarnation then k x

let retry_policy t = (config t).Config.rpc_retry

(* Budget of a quarantined item's repair: donor fetches, and the polls
   of each transaction the donor still had in flight. *)
let max_repair_attempts = 64

(* Run [k] after [delay] unless the incarnation ends first. *)
let after t ~delay k = ignore (Engine.schedule (engine t) ~delay (fenced t k))

let amount_of t ~item =
  match Database.get_col t.db ~table:stock_table ~key:item ~col:"amount" with
  | Ok (Value.Int n) -> Some n
  | Ok _ | Error _ -> None

let item_known t ~item = Database.mem t.db ~table:stock_table ~key:item

(* Transaction ids for Immediate Update and epoch intents must be globally
   unique; reserve a large per-site range keyed by the address. *)
let txid_range = 1_000_000

let fresh_txid t =
  let txid = (Address.to_int t.addr * txid_range) + t.next_txn_seq in
  t.next_txn_seq <- t.next_txn_seq + 1;
  txid

(* Keep the allocator above a txid this site issued before a crash. *)
let note_own_txid t txid =
  let seq = txid - (Address.to_int t.addr * txid_range) in
  if seq >= t.next_txn_seq then t.next_txn_seq <- seq + 1

(* History keys must sort lexicographically in insertion order (the audit
   table iterates rows in key order). Zero-padded six-digit decimals do
   that for the first million rows; past that, each extra digit is
   announced by a leading '~' — which sorts after every digit — so longer
   keys follow all shorter ones (plain "%06d" would interleave them).
   Hand-rolled over [Printf.sprintf]: this sits on the applied-update hot
   path and the format-string interpreter was measurable there. *)
let history_key n =
  if n < 0 then invalid_arg "Site.history_key: negative";
  let digits =
    let rec loop d v = if v < 10 then d else loop (d + 1) (v / 10) in
    loop 1 n
  in
  let prefix = if digits > 6 then digits - 6 else 0 in
  let width = if digits > 6 then digits else 6 in
  let b = Bytes.make (prefix + width) '0' in
  Bytes.fill b 0 prefix '~';
  let rec fill i v =
    Bytes.set b i (Char.unsafe_chr (Char.code '0' + (v mod 10)));
    if v >= 10 then fill (i - 1) (v / 10)
  in
  fill (prefix + width - 1) n;
  Bytes.unsafe_to_string b

(* Audit trail: one row per locally-applied update when configured. Runs in
   its own committed transaction right after the stock change - the WAL
   orders them, so recovery keeps history and stock consistent. *)
let record_history t ~item ~delta ~path =
  if (config t).Config.record_history then begin
    let txn = Database.begin_txn t.db in
    let key = history_key t.history_seq in
    t.history_seq <- t.history_seq + 1;
    let row = [| Value.Str item; Value.Int delta; Value.Str path |] in
    match Database.insert txn ~table:history_table ~key row with
    | Ok () -> Database.commit txn
    | Error e ->
        Database.abort txn;
        failwith ("Site.record_history: " ^ e)
  end

(* One committed stock change plus its audit row; [what] names the caller
   in the failure message. *)
let commit_delta t ~item ~delta ~path ~what =
  let txn = Database.begin_txn t.db in
  match Database.add_int txn ~table:stock_table ~key:item ~col:"amount" delta with
  | Ok _ ->
      Database.commit txn;
      record_history t ~item ~delta ~path
  | Error e ->
      Database.abort txn;
      failwith (what ^ ": " ^ e)

(* Σ deltas of protocol-log entries on [item] whose outcome is Commit. *)
let committed_2pc_delta t ~item =
  List.fold_left
    (fun acc (e : Txn_log.entry) ->
      if e.Txn_log.outcome = Some Two_phase.Commit && String.equal e.Txn_log.item item then
        acc + e.Txn_log.delta
      else acc)
    0 (Txn_log.entries t.txn_log)
