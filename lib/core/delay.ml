(* Delay Update: the paper's AV scheme for regular products. A negative
   delta consumes local AV, circulating more from peers only on shortage;
   a positive delta mints AV locally. Applied deltas propagate lazily as
   versioned cumulative counters. *)

open Avdb_sim
open Avdb_net
open Avdb_store
open Avdb_av
module C = Site_core

let name = "delay"

(* Outgoing lazy-propagation state for one item: the cumulative net local
   delta and the site-wide sequence number of its latest change. Mutable
   in place so the per-update hot path costs one hash lookup. *)
type item_sync = { mutable version : int; mutable cum : int }

type t = {
  core : C.t;
  av : Av_table.t;
  view : Peer_view.t;
  sel_state : Strategy.selection_state;
  rng : Rng.t;
  prefetch_in_flight : (string, unit) Hashtbl.t;
  (* Cumulative net local delta and a strictly increasing change stamp per
     item; survives crashes (persisted metadata, like the AV table). The
     receiver-side counterpart below makes lazy propagation loss-,
     duplicate- and reorder-proof. One table, one lookup per update. *)
  sync_out : (string, item_sync) Hashtbl.t;
  mutable sync_seq : int;
      (* bumped on every local change; an item's [version] is the seq of
         its latest change, so versions are strictly monotone per item *)
  mutable sync_flushed_seq : int;
      (* everything <= this has been broadcast at least once *)
  conveyed_sync : (int, int) Hashtbl.t;
      (* peer -> seq whose delivery that peer has positively acknowledged
         (via an AV-grant reply to a request carrying the piggyback);
         flushes skip counters a peer is known to hold *)
  applied_sync : (int * string, int * int) Hashtbl.t;
      (* (origin site, item) -> last (version, counter) applied *)
  applied_high : (int, int) Hashtbl.t;
      (* origin -> highest version applied from it; gap-free because every
         payload carries an origin's whole unacknowledged backlog, so this
         single int is a complete cumulative acknowledgement *)
  mutable last_sync_apply : Time.t option;
      (* sim-time of the last remotely-originated sync batch this replica
         committed; feeds the [sync.apply_age_ms] staleness gauge *)
  mutable sync_rr : int;  (* rotation cursor for [Config.sync_fanout] *)
  mutable sync_rot_left : int;  (* fanout flushes still owed this rotation *)
  mutable sync_flush_scheduled : bool;
}

let create core ~av_init =
  let av = Av_table.create () in
  if (C.config core).Config.mode = Config.Autonomous then
    List.iter (fun (item, volume) -> Av_table.define av ~item ~volume) av_init;
  {
    core;
    av;
    view = Peer_view.create ();
    sel_state = Strategy.create_state ();
    rng = Rng.split (Engine.rng (C.engine core));
    prefetch_in_flight = Hashtbl.create 16;
    sync_out = Hashtbl.create 16;
    sync_seq = 0;
    sync_flushed_seq = 0;
    conveyed_sync = Hashtbl.create 8;
    applied_sync = Hashtbl.create 64;
    applied_high = Hashtbl.create 8;
    last_sync_apply = None;
    sync_rr = 0;
    sync_rot_left = 0;
    sync_flush_scheduled = false;
  }

let av_table d = d.av
let peer_view d = d.view
let last_sync_apply d = d.last_sync_apply

let metrics d = d.core.C.metrics

(* Heap words reachable from the site's replica + protocol state: stock
   rows, AV ledger, peer view, sync sender/receiver tables and the peer
   cache. Deliberately excludes the WAL and audit history (they grow with
   applied-update count, not with the catalogue) — this is the quantity
   partial replication bounds by the interest set. *)
let live_words d =
  Obj.reachable_words
    (Obj.repr
       ( Database.table d.core.C.db C.stock_table,
         d.av,
         d.view,
         d.sync_out,
         d.conveyed_sync,
         d.applied_sync,
         d.applied_high,
         d.core.C.peer_cache ))

(* Hierarchical AV circulation: the cold-cache fallback target is this
   site's parent in the item's subscriber tree, so requests climb toward
   the base instead of all N subscribers hammering it directly. *)
let av_fallback d ~item =
  Option.map Address.of_int
    (Topology.av_parent (C.topology d.core) ~site:(C.site_index d.core) ~item)

let peer_interested d peer ~item =
  Topology.interested (C.topology d.core) ~site:(Address.to_int peer) ~item

let pending_sync_deltas d =
  Hashtbl.fold
    (fun item s acc -> if s.version > d.sync_flushed_seq then (item, s.cum) :: acc else acc)
    d.sync_out []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Consistency-lag probe inputs: how far this replica's view of [item]
   trails its origin, measured in sync-counter versions. The origin's
   outbound stamp minus what this site has applied from it is a monotone
   staleness distance — 0 exactly when every delta the origin ever
   queued has landed here. *)
let sync_version d ~item =
  match Hashtbl.find_opt d.sync_out item with Some s -> s.version | None -> 0

let applied_sync_version d ~origin ~item =
  match Hashtbl.find_opt d.applied_sync (origin, item) with
  | Some (version, _) -> version
  | None -> 0

let queue_sync d ~item ~delta =
  d.sync_seq <- d.sync_seq + 1;
  (* Exception-style lookup: this runs once per applied update and the
     steady state is always a hit, so skip [find_opt]'s [Some]. *)
  match Hashtbl.find d.sync_out item with
  | s ->
      s.version <- d.sync_seq;
      s.cum <- s.cum + delta
  | exception Not_found -> Hashtbl.add d.sync_out item { version = d.sync_seq; cum = delta }

(* Counters a peer is not yet known to hold: everything stamped after the
   last piggyback that peer acknowledged (or everything, when [force]d —
   recovery and quiescence flushes must not trust optimistic state).
   Under partial replication, counters for items the peer does not
   subscribe to are omitted — it has no row to apply them to and must
   never be made to track them. *)
(* The full pending-counter list, encoded (folded out of the hashtable
   and name-sorted) once. [flush_sync] shares one of these across all
   its peers — each peer's payload is a filter of it — instead of
   re-folding and re-sorting per notified peer. *)
let pending_counters d =
  Hashtbl.fold (fun item s acc -> (item, s.version, s.cum) :: acc) d.sync_out []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let filter_payload d ~force ~pending peer =
  let upto =
    if force then 0
    else Option.value ~default:0 (Hashtbl.find_opt d.conveyed_sync (Address.to_int peer))
  in
  if d.sync_seq <= upto then []
  else begin
    let full = Topology.is_full (C.topology d.core) in
    List.filter
      (fun (item, version, _) -> version > upto && (full || peer_interested d peer ~item))
      pending
  end

let sync_payload_for d ~force peer = filter_payload d ~force ~pending:(pending_counters d) peer

let note_sync_conveyed d peer ~upto =
  let p = Address.to_int peer in
  if upto > Option.value ~default:0 (Hashtbl.find_opt d.conveyed_sync p) then
    Hashtbl.replace d.conveyed_sync p upto

let sync_av_info d counters =
  List.filter_map
    (fun (item, _, _) ->
      if Av_table.is_defined d.av ~item then Some (item, Av_table.available d.av ~item)
      else None)
    counters

let note_applied d ~origin (item, version, cum) =
  Hashtbl.replace d.applied_sync (origin, item) (version, cum);
  if version > Option.value ~default:0 (Hashtbl.find_opt d.applied_high origin) then
    Hashtbl.replace d.applied_high origin version

(* Receiver side, shared by dedicated notices and payloads piggybacked on
   AV traffic: apply only counters stamped newer than the last one seen
   from that origin. Versions are strictly monotone per (origin, item), so
   losses, replays and reorderings all resolve to "apply the cumulative
   difference once, in stamp order". *)
let apply_sync_counters d ~src counters =
  let core = d.core in
  if counters <> [] && not (C.is_down core) then begin
    let origin = Address.to_int src in
    let fresh_deltas =
      List.filter_map
        (fun (item, version, cum) ->
          match Hashtbl.find_opt d.applied_sync (origin, item) with
          | Some (last_version, _) when version <= last_version -> None
          | Some (_, last_cum) -> Some (item, cum - last_cum, version, cum)
          | None -> Some (item, cum, version, cum))
        counters
    in
    let note_all () =
      List.iter
        (fun (item, _, version, cum) -> note_applied d ~origin (item, version, cum))
        fresh_deltas
    in
    if fresh_deltas <> [] && Mutation.enabled Mutation.Lossy_sync then
      (* Mutation: a lossy counter — advance the per-origin version
         bookkeeping as if the deltas were applied but drop the data.
         Later counters diff against the recorded cum, so the volume is
         permanently lost and replicas never converge. *)
      note_all ()
    else if fresh_deltas <> [] then begin
      let txn = Database.begin_txn core.C.db in
      let ok =
        List.for_all
          (fun (item, delta, _, _) ->
            Result.is_ok
              (Database.add_int txn ~table:C.stock_table ~key:item ~col:"amount" delta))
          fresh_deltas
      in
      if ok then begin
        Database.commit txn;
        note_all ();
        d.last_sync_apply <- Some (C.now core);
        if C.tracing core then
          C.span_instant core ~category:"sync" "sync.apply"
            ~fields:
              [
                ("from", Address.to_string src);
                ("items", string_of_int (List.length fresh_deltas));
              ]
      end
      else Database.abort txn
    end
  end

let flush_sync ?(force = false) d =
  (* Each notified peer gets every counter it has not acknowledged (not
     just recent deltas): a receiver that missed earlier notices catches
     up from any later one. Counters a peer acknowledged — through an
     AV-grant reply or a reverse-direction notice's ack vector — are
     omitted, and a fully caught-up peer is skipped entirely. With
     [Config.sync_fanout] set, only that many peers are notified per
     flush, rotating round-robin; the cumulative counters make the
     rotation safe because whichever flush finally reaches a peer carries
     everything it missed. [force] broadcasts everything to everyone:
     convergence must not depend on acks or rotation position. *)
  let core = d.core in
  if (not (C.is_down core)) && Hashtbl.length d.sync_out > 0 then begin
    let new_deltas = d.sync_seq > d.sync_flushed_seq in
    d.sync_flushed_seq <- d.sync_seq;
    (* The audience: every peer under full replication; under partial
       replication only the union of the pending items' subscribers — a
       forced convergence flush included, so nothing here is O(N) per
       event unless the interest sets themselves are. *)
    let audience =
      if Topology.is_full (C.topology core) then C.peers core
      else begin
        let seen = Hashtbl.create 16 in
        Hashtbl.iter
          (fun item _ ->
            List.iter
              (fun i -> if i <> C.site_index core then Hashtbl.replace seen i ())
              (Topology.subscribers (C.topology core) ~item))
          d.sync_out;
        Hashtbl.fold (fun i () acc -> Address.of_int i :: acc) seen []
        |> List.sort Address.compare
      end
    in
    let targets =
      let all = audience in
      match (C.config core).Config.sync_fanout with
      | Some k when (not force) && k < List.length all ->
          let n = List.length all in
          (* A burst of deltas needs ceil(n/k) flushes for the rotation to
             reach every peer; [sync_rot_left] counts the ones still owed
             so the debounce re-arms until the cycle completes. *)
          if new_deltas then d.sync_rot_left <- ((n + k - 1) / k) - 1
          else if d.sync_rot_left > 0 then d.sync_rot_left <- d.sync_rot_left - 1;
          let start = d.sync_rr mod n in
          d.sync_rr <- d.sync_rr + k;
          List.filteri (fun i _ -> (i - start + n) mod n < k) all
      | Some _ | None ->
          d.sync_rot_left <- 0;
          all
    in
    let ack =
      Hashtbl.fold (fun origin version acc -> (origin, version) :: acc) d.applied_high []
      |> List.sort compare
    in
    let sent = ref false in
    (* One sync-encode pass per flush: fold and sort the pending counters
       once, then filter the shared list per peer. *)
    let pending = pending_counters d in
    List.iter
      (fun peer ->
        match filter_payload d ~force ~pending peer with
        | [] -> ()
        | counters ->
            sent := true;
            Rpc.notify (C.rpc core) ~src:core.C.addr ~dst:peer
              (Protocol.Sync_counters { counters; av_info = sync_av_info d counters; ack }))
      targets;
    if !sent then begin
      let m = metrics d in
      m.Update.Metrics.sync_batches_sent <- m.Update.Metrics.sync_batches_sent + 1;
      if C.tracing core then
        C.span_instant core ~category:"sync" "sync.flush"
          ~fields:[ ("items", string_of_int (Hashtbl.length d.sync_out)) ]
    end
  end

(* Lazy propagation is debounced rather than a free-running timer: the
   first delta after a quiet period arms one flush event [sync_interval]
   later. A drained event queue therefore means true quiescence. *)
let rec schedule_sync_flush d =
  match (C.config d.core).Config.sync_interval with
  | None -> ()
  | Some interval ->
      if
        (not d.sync_flush_scheduled)
        && (d.sync_seq > d.sync_flushed_seq || d.sync_rot_left > 0)
      then begin
        d.sync_flush_scheduled <- true;
        C.after d.core ~delay:interval (fun () ->
            d.sync_flush_scheduled <- false;
            flush_sync d;
            (* Keep the timer alive while a fanout rotation still owes
               peers their notice. *)
            schedule_sync_flush d)
      end

(* Apply a committed local delta to the replicated stock value and queue it
   for lazy propagation. Only called after AV accounting has authorised the
   delta, so a failure here is a bug, not an input error. *)
let apply_local_delta d ~item ~delta =
  let core = d.core in
  match Database.apply_int core.C.db ~table:C.stock_table ~key:item ~col:"amount" delta with
  | Ok _new_amount ->
      C.record_history core ~item ~delta ~path:"delay";
      queue_sync d ~item ~delta;
      schedule_sync_flush d
  | Error e -> failwith (Printf.sprintf "Delay.apply_local_delta %s: %s" item e)

(* --- request handling (the accelerator's server side) --- *)

(* Piggybacks are free on an unmetered network but spend the link's
   bandwidth on a metered one, where inflating an RPC can push it past its
   own timeout. Budget: roughly a tenth of the bytes the link moves within
   one RPC timeout, expressed as an entry count (an entry is an item name
   plus an int or two). *)
let piggyback_entry_budget d =
  let config = C.config d.core in
  match config.Config.bandwidth_bytes_per_sec with
  | None -> max_int
  | Some b ->
      int_of_float (Time.to_sec config.Config.rpc_timeout *. float_of_int b) / (10 * 24)

(* The donor's available AV across items, piggybacked on grants so one
   reply warms the requester's whole selection cache. Zero levels are
   included: learning a peer ran dry is exactly what steers selection
   away from it. *)
let av_levels_snapshot d =
  let budget = piggyback_entry_budget d in
  List.filteri
    (fun i _ -> i < budget)
    (List.map (fun (item, available, _) -> (item, available)) (Av_table.snapshot d.av))

(* Sync counters to piggyback on an AV request or grant towards [peer],
   paired with the sequence number the payload covers (0 when nothing may
   be concluded from it). All-or-nothing: a truncated payload must not be
   sent, because the requester advances its conveyed-tracking on the
   reply assuming the whole backlog went through. *)
let sync_piggyback_for d peer =
  let payload = sync_payload_for d ~force:false peer in
  if List.length payload > piggyback_entry_budget d then ([], 0) else (payload, d.sync_seq)

let handle_av_request d ~src ~span ~item ~amount ~requester_available ~sync ~reply =
  let core = d.core in
  Peer_view.observe d.view ~site:src ~item ~volume:requester_available ~at:(C.now core);
  apply_sync_counters d ~src sync;
  let available = Av_table.available d.av ~item in
  let granting = (C.config core).Config.strategy.Strategy.granting in
  let granted = Strategy.Granting.amount granting ~available ~requested:amount in
  let granted =
    if granted = 0 then 0
    else
      match Av_table.withdraw d.av ~item granted with
      | Ok () -> granted
      | Error _ -> 0
  in
  let m = metrics d in
  m.Update.Metrics.av_volume_granted <- m.Update.Metrics.av_volume_granted + granted;
  C.trace core ~category:"av" "%a grants %d of %s to %a (keeps %d)" Address.pp core.C.addr
    granted item Address.pp src (Av_table.available d.av ~item);
  if C.tracing core then
    C.span_instant core ?parent:span ~category:"av" "av.grant"
      ~fields:
        [
          ("item", item);
          ("granted", string_of_int granted);
          ("to", Address.to_string src);
        ];
  reply
    (Protocol.Av_grant
       {
         granted;
         donor_available = Av_table.available d.av ~item;
         av_levels = av_levels_snapshot d;
         (* Unacknowledged piggyback: the requester's version checks make
            a replayed reply harmless, and its conveyed-tracking is never
            advanced by it. *)
         sync = fst (sync_piggyback_for d src);
       })

let handle_sync d ~src ~counters ~av_info ~ack =
  let core = d.core in
  if not (C.is_down core) then begin
    List.iter
      (fun (item, volume) -> Peer_view.observe d.view ~site:src ~item ~volume ~at:(C.now core))
      av_info;
    (* The sender's cumulative ack of OUR counters: it holds everything of
       ours up to that version, so our later flushes to it shrink to the
       true backlog. *)
    (match List.assoc_opt (Address.to_int core.C.addr) ack with
    | Some upto -> note_sync_conveyed d src ~upto
    | None -> ());
    apply_sync_counters d ~src counters
  end

(* A grant reply from [target]: acknowledge the request's piggyback (the
   counters up to [sync_upto] reached that peer, so later flushes can omit
   them), apply the donor's own piggyback and warm the peer view. *)
let absorb_grant d ~target ~item ~sync_upto ~donor_available ~av_levels ~sync =
  let at = C.now d.core in
  note_sync_conveyed d target ~upto:sync_upto;
  apply_sync_counters d ~src:target sync;
  List.iter
    (fun (item, volume) -> Peer_view.observe d.view ~site:target ~item ~volume ~at)
    av_levels;
  Peer_view.observe d.view ~site:target ~item ~volume:donor_available ~at

let av_request d ~target ~item ~amount ~span k =
  let core = d.core in
  let sync, sync_upto = sync_piggyback_for d target in
  let request =
    Protocol.Av_request
      { item; amount; requester_available = Av_table.available d.av ~item; sync }
  in
  Rpc.call (C.rpc core) ~src:core.C.addr ~dst:target ~timeout:(C.config core).Config.rpc_timeout
    ~retry:(C.retry_policy core) ~span request
    (C.fenced core (fun response -> k ~sync_upto response))

let select_donor d ~item ~exclude =
  let core = d.core in
  Strategy.select (C.config core).Config.strategy ~rng:d.rng ~state:d.sel_state
    ~self:core.C.addr ~peers:(C.peers_for core ~item) ~fallback:(av_fallback d ~item)
    ~view:d.view ~item ~exclude

(* --- autonomous AV circulation (extension of the paper's §3.4) ---

   When a Delay Update leaves an item's available AV below the configured
   low watermark, refill in the background from one peer, aiming at twice
   the watermark. One in-flight refill per item; failures are silent (the
   foreground path still works on demand). *)

let rec maybe_prefetch d ~item =
  let core = d.core in
  match (C.config core).Config.prefetch_low with
  | None -> ()
  | Some low ->
      if
        (not (C.is_down core))
        && (not (Hashtbl.mem d.prefetch_in_flight item))
        && Av_table.is_defined d.av ~item
        && Av_table.available d.av ~item < low
      then begin
        match select_donor d ~item ~exclude:(Address.Set.singleton core.C.addr) with
        | None -> ()
        | Some target ->
            Hashtbl.replace d.prefetch_in_flight item ();
            let m = metrics d in
            m.Update.Metrics.prefetch_requests <- m.Update.Metrics.prefetch_requests + 1;
            let want = (2 * low) - Av_table.available d.av ~item in
            let sp = C.span_start core ~category:"av" "av.prefetch" in
            C.span_field core sp "item" item;
            C.span_field_int core sp "want" want;
            av_request d ~target ~item ~amount:want ~span:sp (fun ~sync_upto response ->
                Hashtbl.remove d.prefetch_in_flight item;
                match response with
                | Ok (Protocol.Av_grant { granted; donor_available; av_levels; sync }) ->
                    absorb_grant d ~target ~item ~sync_upto ~donor_available ~av_levels ~sync;
                    C.span_field_int core sp "granted" granted;
                    C.span_end core sp;
                    if granted > 0 then begin
                      m.Update.Metrics.av_volume_received <-
                        m.Update.Metrics.av_volume_received + granted;
                      match Av_table.deposit d.av ~item granted with
                      | Ok () -> maybe_prefetch d ~item
                      | Error e -> failwith ("Delay.maybe_prefetch deposit: " ^ e)
                    end
                | Ok _ | Error _ ->
                    C.span_warn core sp;
                    C.span_end core sp)
      end

(* --- Delay Update (client side) --- *)

let av_ok what = function
  | Ok () -> ()
  | Error e -> failwith (Printf.sprintf "Delay.%s: %s" what e)

(* Acquire [need] units of AV on [item], leaving exactly [need] held on
   success. On shortage, holds everything local and circulates AV from
   peers (the selecting + deciding functions), one correspondence per peer
   asked; surplus from a final over-grant stays available locally
   ("remaining AV is stored at the local AV table"). On failure every
   volume gathered is released back to available - nothing is lost, and
   what peers sent stays at this site for future updates. *)
let acquire_av d ?parent ~item ~need k =
  let core = d.core in
  if need < 0 then invalid_arg "Delay.acquire_av: negative need";
  if need = 0 then k (Ok 0)
  else if Av_table.available d.av ~item >= need then begin
    av_ok "acquire_av hold" (Av_table.hold d.av ~item need);
    k (Ok 0)
  end
  else begin
    (* Only the shortage path gets a span: a locally-satisfied hold is not
       an acquisition, and the quiet case would swamp the trace. *)
    let m = metrics d in
    m.Update.Metrics.av_shortages <- m.Update.Metrics.av_shortages + 1;
    let sp = C.span_start core ?parent ~category:"av" "av.acquire" in
    C.span_field core sp "item" item;
    C.span_field_int core sp "need" need;
    let acquired = ref (Av_table.hold_all d.av ~item) in
    let tried = ref (Address.Set.singleton core.C.addr) in
    let rounds = ref 0 in
    let give_up reason =
      av_ok "acquire_av release" (Av_table.release d.av ~item !acquired);
      C.trace core ~level:Trace.Warn ~category:"av" "%a gives up acquiring %d of %s (%a)"
        Address.pp core.C.addr need item Update.pp_reason reason;
      if C.tracing core then
        C.span_field core sp "reason" (Format.asprintf "%a" Update.pp_reason reason);
      C.span_warn core sp;
      C.span_end core sp;
      k (Error reason)
    in
    let rec step () =
      if C.is_down core then give_up Update.Unreachable
      else if !acquired >= need then begin
        av_ok "acquire_av release surplus" (Av_table.release d.av ~item (!acquired - need));
        C.trace core ~category:"av" "%a acquired %d of %s in %d rounds" Address.pp core.C.addr
          need item !rounds;
        C.span_field_int core sp "rounds" !rounds;
        C.span_end core sp;
        k (Ok !rounds)
      end
      else begin
        match select_donor d ~item ~exclude:!tried with
        | None -> give_up Update.Av_exhausted
        | Some target ->
            tried := Address.Set.add target !tried;
            incr rounds;
            m.Update.Metrics.av_requests_sent <- m.Update.Metrics.av_requests_sent + 1;
            let asked_at = C.now core in
            av_request d ~target ~item ~amount:(need - !acquired) ~span:sp
              (fun ~sync_upto response ->
                (match response with
                | Ok (Protocol.Av_grant { granted; donor_available; av_levels; sync }) ->
                    Avdb_metrics.Sketch.add m.Update.Metrics.grant_latency
                      (Time.to_ms (Time.diff (C.now core) asked_at));
                    absorb_grant d ~target ~item ~sync_upto ~donor_available ~av_levels ~sync;
                    if granted > 0 then begin
                      m.Update.Metrics.av_volume_received <-
                        m.Update.Metrics.av_volume_received + granted;
                      av_ok "acquire_av deposit grant" (Av_table.deposit d.av ~item granted);
                      (* Mutation: credit the grant twice — volume conjured
                         out of thin air; exact conservation must convict. *)
                      if Mutation.enabled Mutation.Double_deposit then
                        av_ok "acquire_av double deposit" (Av_table.deposit d.av ~item granted);
                      av_ok "acquire_av hold grant" (Av_table.hold d.av ~item granted);
                      acquired := !acquired + granted
                    end
                | Ok _ | Error _ -> ());
                step ())
      end
    in
    step ()
  end

let applied_kind rounds = if rounds = 0 then Update.Local else Update.With_transfer rounds

let submit d ~item ~delta ~finish =
  let core = d.core in
  let root = C.span_start core ~category:"update" "update.delay" in
  (* Fields go on the span only if it is headed for an export: attaching
     them to a sampled-out (pending) span is pure throughput loss on THE
     hot path. A warn or slow finish can still promote the span below, in
     which case the fields are re-attached while the data is in scope. *)
  let recorded = Avdb_obs.Tracer.recording core.C.shared.C.tracer root in
  if recorded then begin
    C.span_field core root "item" item;
    C.span_field_int core root "delta" delta
  end;
  let finish outcome =
    (match outcome with
    | Update.Rejected _ -> C.span_warn core root
    | Update.Applied _ -> ());
    C.span_end core root;
    if (not recorded) && Avdb_obs.Tracer.recording core.C.shared.C.tracer root then begin
      C.span_field core root "item" item;
      C.span_field_int core root "delta" delta
    end;
    finish outcome
  in
  if delta >= 0 then begin
    (* Positive deltas create AV; no communication at all. [mint] rather
       than [deposit]: new volume enters the conservation ledger here,
       whereas grants from peers merely move existing volume. *)
    av_ok "submit mint" (Av_table.mint d.av ~item delta);
    apply_local_delta d ~item ~delta;
    finish (Update.Applied Update.Local)
  end
  else begin
    let need = -delta in
    acquire_av d ~parent:root ~item ~need (function
      | Error reason -> finish (Update.Rejected reason)
      | Ok rounds ->
          apply_local_delta d ~item ~delta;
          av_ok "submit consume" (Av_table.consume d.av ~item need);
          maybe_prefetch d ~item;
          finish (Update.Applied (applied_kind rounds)))
  end

(* Atomic multi-item Delay Update: acquire AV for every negative delta
   first (sequentially), then apply all deltas in one local storage
   transaction. If any acquisition fails, holds taken for earlier items
   are released and nothing is applied. *)
let submit_batch d ~deltas ~finish =
  let core = d.core in
  let root = C.span_start core ~category:"update" "update.delay_batch" in
  C.span_field_int core root "items" (List.length deltas);
  let finish = C.finish_root core root finish in
  let coalesced =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (item, delta) ->
        Hashtbl.replace tbl item (delta + Option.value ~default:0 (Hashtbl.find_opt tbl item)))
      deltas;
    Hashtbl.fold (fun item delta acc -> (item, delta) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let apply_all () =
    let txn = Database.begin_txn core.C.db in
    List.iter
      (fun (item, delta) ->
        match Database.add_int txn ~table:C.stock_table ~key:item ~col:"amount" delta with
        | Ok _ -> ()
        | Error e -> failwith ("Delay.submit_batch apply: " ^ e))
      coalesced;
    Database.commit txn;
    List.iter
      (fun (item, delta) ->
        C.record_history core ~item ~delta ~path:"delay-batch";
        queue_sync d ~item ~delta;
        if delta >= 0 then av_ok "submit_batch mint" (Av_table.mint d.av ~item delta)
        else av_ok "submit_batch consume" (Av_table.consume d.av ~item (-delta)))
      coalesced;
    schedule_sync_flush d;
    List.iter (fun (item, _) -> maybe_prefetch d ~item) coalesced
  in
  let rec acquire_loop pending held total_rounds =
    match pending with
    | [] ->
        apply_all ();
        finish (Update.Applied (applied_kind total_rounds))
    | (item, delta) :: rest ->
        if delta >= 0 then acquire_loop rest held total_rounds
        else begin
          let need = -delta in
          acquire_av d ~parent:root ~item ~need (function
            | Ok rounds -> acquire_loop rest ((item, need) :: held) (total_rounds + rounds)
            | Error reason ->
                List.iter
                  (fun (item, need) ->
                    av_ok "submit_batch release" (Av_table.release d.av ~item need))
                  held;
                finish (Update.Rejected reason))
        end
  in
  acquire_loop coalesced [] 0

(* --- lifecycle --- *)

(* AV volumes arrive with [av_init]: nothing more to set up per item. *)
let adopt _ ~item:_ = ()

let serve d ~src ~span request ~reply =
  match request with
  | Protocol.Av_request { item; amount; requester_available; sync } ->
      handle_av_request d ~src ~span ~item ~amount ~requester_available ~sync ~reply
  | _ -> reply (Protocol.Bad_request "not a delay request")

let notice d ~src = function
  | Protocol.Sync_counters { counters; av_info; ack } ->
      handle_sync d ~src ~counters ~av_info ~ack

(* Background refills and the flush debounce die with the process. *)
let crash d =
  Hashtbl.reset d.prefetch_in_flight;
  d.sync_flush_scheduled <- false

(* Holds taken by in-flight updates go back to available — their owners
   died with the old incarnation — and the debounced flush timer is
   re-armed if committed deltas are still waiting to propagate. *)
let recover d =
  Av_table.release_all d.av;
  schedule_sync_flush d

(* A regular item's committed row is
     initial + own cumulative sync counter + Σ applied remote counters
   (each counter moves in the same atomic event as its commit), so it is
   exact whatever else the site lost. *)
let rebuild_row d ~trust_txn_log:_ ~item ~initial =
  let own = match Hashtbl.find_opt d.sync_out item with Some s -> s.cum | None -> 0 in
  Hashtbl.fold
    (fun (_, i) (_, cum) acc -> if String.equal i item then acc + cum else acc)
    d.applied_sync (initial + own)

let tainted_by_log_loss = false

(* Serve the sync counters already folded into the snapshot rows: our own
   cumulative counters and everything we have applied from other origins.
   The joiner seeds its receiver state with these, so later notices apply
   only what the snapshot missed. *)
let join_snapshot d ~want (snap : Protocol.snapshot) =
  let own =
    Hashtbl.fold
      (fun item s acc ->
        if want item then (C.site_index d.core, item, s.version, s.cum) :: acc else acc)
      d.sync_out []
  in
  let applied =
    Hashtbl.fold
      (fun (origin, item) (version, counter) acc ->
        if want item then (origin, item, version, counter) :: acc else acc)
      d.applied_sync []
  in
  { snap with Protocol.sync_state = own @ applied }

let join_install d (snap : Protocol.snapshot) =
  List.iter
    (fun (origin, item, version, counter) -> note_applied d ~origin (item, version, counter))
    snap.Protocol.sync_state

(* Never reached: a regular row is rebuilt exactly after any loss, so it
   is never quarantined. *)
let repair_install _ ~item:_ ~donor:_ _ ~k = k ()

let backlog d =
  Hashtbl.fold
    (fun _ s n -> if s.version > d.sync_flushed_seq then n + 1 else n)
    d.sync_out 0
