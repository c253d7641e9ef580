(* Epoch-quorum commit: the third update class.

   Writers log intents durably and hand them to a deterministic sequencer
   that rotates over the item's subscriber set; the sequencer totally
   orders the buffered intents into one seal per epoch and decides it with
   a single-decree quorum round (ballot = escalation rank, so candidates
   at different ranks never share a ballot). Subscribers apply sealed
   epochs strictly in order, pulling any gap, so every replica applies the
   same prefix — no per-transaction cross-site lock round-trip. *)

open Avdb_net
open Avdb_store
open Avdb_txn
module C = Site_core

let name = "epoch"

(* Per-item epoch-quorum commit state. The durable truth lives in the
   protocol log (intent / promise / accept / seal / floor records); this
   is the in-memory working set a recovery rebuilds from it. *)
type item = {
  ei_item : string;
  mutable ei_subs : Address.t list;  (* all subscribers, self included *)
  mutable ei_subs_version : int;  (* topology version the memo is valid for *)
  mutable ei_applied : int;  (* highest contiguously applied (sealed) epoch *)
  ei_buffer : (int, Txn_log.intent) Hashtbl.t;
      (* unsealed intents known here — own writes plus forwarded ones;
         what the next seal this site proposes will contain *)
  ei_sealed : (int, unit) Hashtbl.t;  (* txids inside applied seals (dedup) *)
  ei_stash : (int, Txn_log.intent list) Hashtbl.t;
      (* seals received ahead of a gap, applied once the pull fills it *)
  ei_waiters : (int, Update.outcome -> unit) Hashtbl.t;
      (* own txid -> submitting client, woken when a seal lands locally *)
  ei_acked : (int, int) Hashtbl.t;
      (* subscriber -> applied epoch it acknowledged; commit re-broadcast
         targets only laggards *)
  mutable ei_attempts : int;
      (* pump ticks without progress on the open epoch; escalates the
         candidate rank (and with it the ballot) every few ticks *)
  mutable ei_pump : bool;  (* a pump tick is scheduled *)
  mutable ei_busy : bool;  (* a propose/collect round is in flight *)
  mutable ei_fence : int;
      (* acceptor fence after an amnesia repair: refuse promises and
         accepts at or below it — the lost acceptor state may cover them *)
}

(* The epoch-class items this site subscribes to, keyed by item. *)
type t = { core : C.t; items : (string, item) Hashtbl.t }

let create core = { core; items = Hashtbl.create 4 }

let log ep = ep.core.C.txn_log
let config ep = C.config ep.core
let rpc_timeout ep = (config ep).Config.rpc_timeout

(* Subscribers in topology order, self included; memoised against the
   topology version like the site's peer cache. *)
let epoch_subs ep st =
  let topo = C.topology ep.core in
  let v = Topology.version topo in
  if st.ei_subs_version <> v then begin
    st.ei_subs <- List.map Address.of_int (Topology.subscribers topo ~item:st.ei_item);
    st.ei_subs_version <- v
  end;
  st.ei_subs

let others ep st = List.filter (fun a -> not (C.is_self ep.core a)) (epoch_subs ep st)
let epoch_quorum subs = (List.length subs / 2) + 1

(* Epoch e's sequencer is subscriber (e mod n); escalation step c moves
   one rank further and doubles as the Paxos ballot. *)
let epoch_candidate ep st ~epoch ~ballot =
  let subs = epoch_subs ep st in
  List.nth subs ((epoch + ballot) mod List.length subs)

(* The durable promise for (item, epoch): promise and accept records both
   count, so the in-memory state needs no mirror. *)
let epoch_promised ep st ~epoch = Txn_log.epoch_promise (log ep) ~item:st.ei_item ~epoch

let blocked ep st = C.is_down ep.core || C.is_quarantined ep.core ~item:st.ei_item

(* This site's candidate seal: every buffered intent not yet inside an
   applied seal, in a deterministic total order. *)
let buffered_seal st =
  Hashtbl.fold
    (fun _ (i : Txn_log.intent) acc ->
      if Hashtbl.mem st.ei_sealed i.Txn_log.i_txid then acc else i :: acc)
    st.ei_buffer []
  |> List.sort (fun (a : Txn_log.intent) (b : Txn_log.intent) ->
         match
           compare (Address.to_int a.Txn_log.i_origin) (Address.to_int b.Txn_log.i_origin)
         with
         | 0 -> compare a.Txn_log.i_txid b.Txn_log.i_txid
         | c -> c)

(* Ballot-0 value fixation: once this candidate durably accepted a value
   for the epoch it may never propose a different one at the same
   ballot. *)
let ballot0_seal ep st ~epoch =
  match Txn_log.epoch_accept (log ep) ~item:st.ei_item ~epoch with
  | Some (_, s) -> s
  | None -> buffered_seal st

(* Apply one sealed epoch: the durable seal record and the stock apply
   happen in the same atomic event, then the local writers whose intents
   it contains are woken. [proposer] marks the site that sealed it — the
   hook point for both epoch mutations. *)
let apply_seal ep st ~epoch ~seal ~proposer =
  let core = ep.core in
  let item = st.ei_item in
  Txn_log.record_epoch_seal (log ep) ~item ~epoch ~seal ~at:(C.now core);
  let applied_intents =
    (* Mutation: a non-proposer subscriber silently drops the seal's first
       intent — the replicas diverge and the checker must notice. *)
    if (not proposer) && Mutation.enabled Mutation.Epoch_drop_intent then
      match seal with [] -> [] | _ :: rest -> rest
    else seal
  in
  let txn = Database.begin_txn core.C.db in
  List.iter
    (fun (i : Txn_log.intent) ->
      (* Mutation: the proposer applies its own seal twice over. *)
      let d =
        if proposer && Mutation.enabled Mutation.Epoch_double_seal then 2 * i.Txn_log.i_delta
        else i.Txn_log.i_delta
      in
      match Database.add_int txn ~table:C.stock_table ~key:item ~col:"amount" d with
      | Ok _ -> ()
      | Error e ->
          Database.abort txn;
          failwith ("Epoch.apply_seal: " ^ e))
    applied_intents;
  Database.commit txn;
  List.iter
    (fun (i : Txn_log.intent) -> C.record_history core ~item ~delta:i.Txn_log.i_delta ~path:"epoch")
    applied_intents;
  st.ei_applied <- epoch;
  st.ei_attempts <- 0;
  Hashtbl.remove st.ei_stash epoch;
  if proposer then begin
    let m = core.C.metrics in
    m.Update.Metrics.epochs_sealed <- m.Update.Metrics.epochs_sealed + 1
  end;
  List.iter
    (fun (i : Txn_log.intent) ->
      Hashtbl.replace st.ei_sealed i.Txn_log.i_txid ();
      Hashtbl.remove st.ei_buffer i.Txn_log.i_txid;
      match Hashtbl.find_opt st.ei_waiters i.Txn_log.i_txid with
      | Some finish ->
          Hashtbl.remove st.ei_waiters i.Txn_log.i_txid;
          finish (Update.Applied Update.Epoch)
      | None -> ())
    seal;
  C.trace core ~category:"epoch" "%a applied %s e%d (%d intents%s)" Address.pp core.C.addr
    item epoch (List.length seal)
    (if proposer then ", sealed here" else "")

let rec drain_stash ep st =
  match Hashtbl.find_opt st.ei_stash (st.ei_applied + 1) with
  | Some seal ->
      apply_seal ep st ~epoch:(st.ei_applied + 1) ~seal ~proposer:false;
      drain_stash ep st
  | None -> ()

(* Push the latest seal to every subscriber that has not acknowledged it;
   a receiver behind by more than one epoch pulls the gap itself. *)
let broadcast_commits ep st =
  let core = ep.core in
  if st.ei_applied > 0 then begin
    let item = st.ei_item in
    match Txn_log.epoch_seal (log ep) ~item ~epoch:st.ei_applied with
    | None -> ()  (* applied epoch below a snapshot floor: nothing to push *)
    | Some seal ->
        let epoch = st.ei_applied in
        List.iter
          (fun peer ->
            if not (C.is_self core peer) then
              let acked =
                Option.value ~default:0 (Hashtbl.find_opt st.ei_acked (Address.to_int peer))
              in
              if acked < epoch then
                Rpc.call (C.rpc core) ~src:core.C.addr ~dst:peer ~timeout:(rpc_timeout ep)
                  (Protocol.Epoch_commit { item; epoch; seal })
                  (C.fenced core (function
                    | Ok (Protocol.Epoch_commit_ack { applied_epoch; _ }) ->
                        let p = Address.to_int peer in
                        if applied_epoch > Option.value ~default:0 (Hashtbl.find_opt st.ei_acked p)
                        then Hashtbl.replace st.ei_acked p applied_epoch
                    | Ok _ | Error _ -> ())))
          (epoch_subs ep st)
  end

let apply_pulled_seals ep st seals =
  List.iter
    (fun (epoch, seal) ->
      if epoch > st.ei_applied && not (Hashtbl.mem st.ei_stash epoch) then
        Hashtbl.replace st.ei_stash epoch seal)
    seals;
  drain_stash ep st

let pull ep st ~from ?(k = ignore) () =
  let core = ep.core in
  Rpc.call (C.rpc core) ~src:core.C.addr ~dst:from ~timeout:(rpc_timeout ep)
    (Protocol.Epoch_pull { item = st.ei_item; from_epoch = st.ei_applied })
    (C.fenced core (fun response ->
         (match response with
         | Ok (Protocol.Epoch_seals { seals; _ }) -> apply_pulled_seals ep st seals
         | Ok _ | Error _ -> ());
         k ()))

(* A quorum round to [others]: [on_reply] counts one answer and says
   whether it completed the quorum; once every answer is in without
   that, the round closes and the pump takes over again. *)
let quorum_round ep st ~closed ~request ~on_reply ~pump =
  let core = ep.core in
  let peers = others ep st in
  let total = List.length peers in
  let replies = ref 0 in
  List.iter
    (fun peer ->
      Rpc.call (C.rpc core) ~src:core.C.addr ~dst:peer ~timeout:(rpc_timeout ep) request
        (C.fenced core (fun response ->
             incr replies;
             on_reply peer response;
             if !replies = total && not !closed then begin
               closed := true;
               st.ei_busy <- false;
               pump ()
             end)))
    peers

(* The liveness pump: while this site holds unsealed intents (or stashed
   out-of-order seals), one tick per [epoch_interval] either proposes (if
   this site is the open epoch's current candidate), escalates to a
   takeover, or re-sends the intents to the candidate it believes in. *)
let rec ensure_pump ep st =
  if (not st.ei_pump) && (Hashtbl.length st.ei_buffer > 0 || Hashtbl.length st.ei_stash > 0)
  then begin
    st.ei_pump <- true;
    C.after ep.core ~delay:(config ep).Config.epoch_interval (fun () ->
        st.ei_pump <- false;
        pump_step ep st;
        ensure_pump ep st)
  end

and pump_step ep st =
  if (not (blocked ep st)) && not st.ei_busy then begin
    if Hashtbl.length st.ei_stash > 0 then begin
      drain_stash ep st;
      if Hashtbl.length st.ei_stash > 0 then request_pull ep st
    end;
    if Hashtbl.length st.ei_buffer > 0 then begin
      st.ei_attempts <- st.ei_attempts + 1;
      let epoch = st.ei_applied + 1 in
      let ballot = (st.ei_attempts - 1) / 3 in
      let cand = epoch_candidate ep st ~epoch ~ballot in
      if C.is_self ep.core cand then
        if ballot = 0 then run_propose ep st ~epoch ~ballot ~seal:(ballot0_seal ep st ~epoch)
        else run_collect ep st ~epoch ~ballot
      else resend_intents ep st cand
    end
  end

(* Phase 2 for (item, epoch) at [ballot]: our own durable accept is both
   our vote and the value the ballot is forever bound to. *)
and run_propose ep st ~epoch ~ballot ~seal =
  let item = st.ei_item in
  st.ei_busy <- true;
  Txn_log.record_epoch_accept (log ep) ~item ~epoch ~ballot ~seal ~at:(C.now ep.core);
  let needed = epoch_quorum (epoch_subs ep st) in
  let votes = ref 1 and closed = ref false in
  let win () =
    if not !closed then begin
      closed := true;
      st.ei_busy <- false;
      if st.ei_applied + 1 = epoch then begin
        apply_seal ep st ~epoch ~seal ~proposer:true;
        drain_stash ep st;
        broadcast_commits ep st
      end;
      ensure_pump ep st
    end
  in
  if !votes >= needed then win ()
  else
    quorum_round ep st ~closed
      ~request:(Protocol.Epoch_propose { item; epoch; ballot; seal })
      ~on_reply:(fun _ -> function
        | Ok (Protocol.Epoch_vote { accepted = true; _ }) ->
            incr votes;
            if !votes >= needed then win ()
        | Ok _ | Error _ -> ())
      ~pump:(fun () -> ensure_pump ep st)

(* Phase 1: a takeover candidate collects promises plus anything already
   accepted or sealed, so it decides the same value the crashed sequencer
   may have sealed — the epoch is presumed unsealed only when no acceptor
   in the quorum reports a value. *)
and run_collect ep st ~epoch ~ballot =
  let core = ep.core in
  let item = st.ei_item in
  st.ei_busy <- true;
  let m = core.C.metrics in
  m.Update.Metrics.epoch_takeovers <- m.Update.Metrics.epoch_takeovers + 1;
  Txn_log.record_epoch_promise (log ep) ~item ~epoch ~ballot ~at:(C.now core);
  let needed = epoch_quorum (epoch_subs ep st) in
  let grants = ref 1 and closed = ref false in
  let sealed_found = ref (Txn_log.epoch_seal (log ep) ~item ~epoch) in
  let best = ref (Txn_log.epoch_accept (log ep) ~item ~epoch) in
  let ahead = ref None in
  let finish_phase1 () =
    if not !closed then begin
      closed := true;
      match !sealed_found with
      | Some seal ->
          st.ei_busy <- false;
          if st.ei_applied + 1 = epoch then begin
            apply_seal ep st ~epoch ~seal ~proposer:false;
            drain_stash ep st
          end;
          broadcast_commits ep st;
          ensure_pump ep st
      | None -> (
          match !ahead with
          | Some peer ->
              (* a peer already applied this epoch but its seal sits below
                 its snapshot floor: catch up by pulling instead *)
              st.ei_busy <- false;
              pull ep st ~from:peer ~k:(fun () -> ensure_pump ep st) ()
          | None ->
              let seal = match !best with Some (_, s) -> s | None -> buffered_seal st in
              run_propose ep st ~epoch ~ballot ~seal)
    end
  in
  if !grants >= needed then finish_phase1 ()
  else
    quorum_round ep st ~closed
      ~request:(Protocol.Epoch_collect { item; epoch; ballot })
      ~on_reply:(fun peer -> function
        | Ok (Protocol.Epoch_state { promised; sealed; accepted; applied_epoch; _ }) ->
            (match sealed with
            | Some s -> sealed_found := Some s
            | None -> if applied_epoch >= epoch then ahead := Some peer);
            (match accepted with
            | Some (b, s) -> (
                match !best with
                | Some (b', _) when b' >= b -> ()
                | Some _ | None -> best := Some (b, s))
            | None -> ());
            if promised <= ballot then begin
              incr grants;
              if !grants >= needed then finish_phase1 ()
            end
        | Ok _ | Error _ -> ())
      ~pump:(fun () -> ensure_pump ep st)

and resend_intents ep st cand =
  let core = ep.core in
  let item = st.ei_item in
  Hashtbl.iter
    (fun _ (i : Txn_log.intent) ->
      let m = core.C.metrics in
      m.Update.Metrics.epoch_intents_resent <- m.Update.Metrics.epoch_intents_resent + 1;
      Rpc.call (C.rpc core) ~src:core.C.addr ~dst:cand ~timeout:(rpc_timeout ep)
        (Protocol.Epoch_intent
           {
             item;
             txid = i.Txn_log.i_txid;
             origin = i.Txn_log.i_origin;
             delta = i.Txn_log.i_delta;
           })
        (C.fenced core (function
          | Ok (Protocol.Epoch_intent_ack { txid; sealed = true }) ->
              (* sealed in an epoch this replica has not applied yet *)
              if not (Hashtbl.mem st.ei_sealed txid) then request_pull ep st
          | Ok _ | Error _ -> ())))
    st.ei_buffer

and request_pull ep st =
  match others ep st with
  | [] -> ()
  | others -> pull ep st ~from:(List.nth others (st.ei_attempts mod List.length others)) ()

(* Close the open epoch immediately once a full batch is buffered, instead
   of waiting out the pump tick. *)
let maybe_close ep st =
  if
    (not st.ei_busy) && (not (blocked ep st))
    && Hashtbl.length st.ei_buffer >= (config ep).Config.epoch_batch
  then begin
    let epoch = st.ei_applied + 1 in
    if C.is_self ep.core (epoch_candidate ep st ~epoch ~ballot:0) then
      run_propose ep st ~epoch ~ballot:0 ~seal:(ballot0_seal ep st ~epoch)
  end

(* Writer path: durable intent, then asynchronous replication — the
   client's continuation fires when a seal containing the txid is applied
   locally. No cross-site round-trip on the submission path. *)
let submit ep ~item ~delta ~finish =
  let core = ep.core in
  let st = Hashtbl.find ep.items item in
  if C.tracing core then
    C.span_instant core ~category:"update" "update.epoch"
      ~fields:[ ("item", item); ("delta", string_of_int delta) ];
  let txid = C.fresh_txid core in
  Txn_log.record_intent (log ep) ~txid ~origin:core.C.addr ~item ~delta ~at:(C.now core);
  Hashtbl.replace st.ei_buffer txid
    { Txn_log.i_txid = txid; i_origin = core.C.addr; i_delta = delta };
  Hashtbl.replace st.ei_waiters txid finish;
  maybe_close ep st;
  ensure_pump ep st

(* Convergence force-flush, the epoch-class analogue of
   [Delay.flush_sync ~force]: one immediate pump step per item plus a
   commit re-broadcast to laggards, so a quiescing cluster converges
   without waiting out pump ticks. *)
let flush_epochs ep =
  if not (C.is_down ep.core) then
    Hashtbl.iter
      (fun item st ->
        if not (C.is_quarantined ep.core ~item) then begin
          broadcast_commits ep st;
          if Hashtbl.length st.ei_buffer > 0 || Hashtbl.length st.ei_stash > 0 then begin
            pump_step ep st;
            ensure_pump ep st
          end
        end)
      ep.items

let epoch_applied ep ~item = Option.map (fun st -> st.ei_applied) (Hashtbl.find_opt ep.items item)

(* --- request handlers (server side) --- *)

let handle_intent ep st ~txid ~origin ~delta ~reply =
  if Hashtbl.mem st.ei_sealed txid then reply (Protocol.Epoch_intent_ack { txid; sealed = true })
  else begin
    if not (Hashtbl.mem st.ei_buffer txid) then
      Hashtbl.replace st.ei_buffer txid
        { Txn_log.i_txid = txid; i_origin = origin; i_delta = delta };
    reply (Protocol.Epoch_intent_ack { txid; sealed = false });
    maybe_close ep st;
    ensure_pump ep st
  end

let handle_propose ep st ~src ~epoch ~ballot ~seal ~reply =
  let core = ep.core in
  let item = st.ei_item in
  if epoch <= st.ei_applied then begin
    reply (Protocol.Epoch_vote { item; epoch; accepted = false });
    (* the proposer is behind a decided epoch: push it the seal so it
       cannot re-decide the epoch with a different value *)
    match Txn_log.epoch_seal (log ep) ~item ~epoch with
    | Some seal ->
        Rpc.call (C.rpc core) ~src:core.C.addr ~dst:src ~timeout:(rpc_timeout ep)
          (Protocol.Epoch_commit { item; epoch; seal })
          (C.fenced core (fun _ -> ()))
    | None -> ()
  end
  else if epoch <= st.ei_fence || ballot < epoch_promised ep st ~epoch then
    reply (Protocol.Epoch_vote { item; epoch; accepted = false })
  else begin
    Txn_log.record_epoch_accept (log ep) ~item ~epoch ~ballot ~seal ~at:(C.now core);
    reply (Protocol.Epoch_vote { item; epoch; accepted = true })
  end

let handle_commit ep st ~src ~epoch ~seal ~reply =
  if epoch = st.ei_applied + 1 then begin
    apply_seal ep st ~epoch ~seal ~proposer:false;
    drain_stash ep st
  end
  else if epoch > st.ei_applied then begin
    if not (Hashtbl.mem st.ei_stash epoch) then Hashtbl.replace st.ei_stash epoch seal;
    pull ep st ~from:src ()
  end;
  reply (Protocol.Epoch_commit_ack { item = st.ei_item; epoch; applied_epoch = st.ei_applied });
  ensure_pump ep st

let handle_collect ep st ~epoch ~ballot ~reply =
  let item = st.ei_item in
  let fenced_off = epoch <= st.ei_fence in
  if (not fenced_off) && ballot >= epoch_promised ep st ~epoch then
    Txn_log.record_epoch_promise (log ep) ~item ~epoch ~ballot ~at:(C.now ep.core);
  reply
    (Protocol.Epoch_state
       {
         item;
         epoch;
         (* a fenced acceptor never grants: report an unbeatable promise so
            the collector cannot count it *)
         promised = (if fenced_off then max_int else epoch_promised ep st ~epoch);
         sealed = Txn_log.epoch_seal (log ep) ~item ~epoch;
         accepted = Txn_log.epoch_accept (log ep) ~item ~epoch;
         applied_epoch = st.ei_applied;
       })

let serve ep ~src ~span:_ request ~reply =
  let on item k =
    match Hashtbl.find_opt ep.items item with
    | None -> reply (Protocol.Bad_request "not an epoch item")
    | Some st -> k st
  in
  (* a quarantined replica takes no part in sealing until repaired *)
  let live item k =
    on item (fun st ->
        if C.is_quarantined ep.core ~item then reply (Protocol.Bad_request "item quarantined")
        else k st)
  in
  match request with
  | Protocol.Epoch_intent { item; txid; origin; delta } ->
      live item (fun st -> handle_intent ep st ~txid ~origin ~delta ~reply)
  | Protocol.Epoch_propose { item; epoch; ballot; seal } ->
      live item (fun st -> handle_propose ep st ~src ~epoch ~ballot ~seal ~reply)
  | Protocol.Epoch_commit { item; epoch; seal } ->
      live item (fun st -> handle_commit ep st ~src ~epoch ~seal ~reply)
  | Protocol.Epoch_pull { item; from_epoch } ->
      on item (fun _ ->
          let seals =
            List.filter_map
              (fun (it, e, seal) ->
                if String.equal it item && e > from_epoch then Some (e, seal) else None)
              (Txn_log.epoch_seals (log ep))
          in
          reply (Protocol.Epoch_seals { item; seals }))
  | Protocol.Epoch_collect { item; epoch; ballot } ->
      live item (fun st -> handle_collect ep st ~epoch ~ballot ~reply)
  | _ -> reply (Protocol.Bad_request "not an epoch request")

(* --- lifecycle --- *)

let adopt ep ~item =
  Hashtbl.replace ep.items item
    {
      ei_item = item;
      ei_subs = [];
      ei_subs_version = -1;
      ei_applied = 0;
      ei_buffer = Hashtbl.create 8;
      ei_sealed = Hashtbl.create 16;
      ei_stash = Hashtbl.create 4;
      ei_waiters = Hashtbl.create 8;
      ei_acked = Hashtbl.create 4;
      ei_attempts = 0;
      ei_pump = false;
      ei_busy = false;
      ei_fence = 0;
    }

(* Buffers, dedup sets, stashed seals, waiting writers, acks and the pump
   are process memory; the applied prefix and the fence are re-derived at
   recovery, everything durable lives in the protocol log. *)
let crash ep =
  Hashtbl.iter
    (fun _ st ->
      Hashtbl.reset st.ei_buffer;
      Hashtbl.reset st.ei_sealed;
      Hashtbl.reset st.ei_stash;
      Hashtbl.reset st.ei_waiters;
      Hashtbl.reset st.ei_acked;
      st.ei_attempts <- 0;
      st.ei_pump <- false;
      st.ei_busy <- false)
    ep.items

(* Rebuild the in-memory epoch state from the durable log: the applied
   prefix from contiguous seal records (above any snapshot floor), the
   dedup set from seal contents, and the writer's own unsealed intents
   back into the buffer so the pump re-sends them. *)
let recover ep =
  let core = ep.core in
  (* intents draw from the same txid allocator as 2PC transactions *)
  List.iter
    (fun (ie : Txn_log.intent_entry) ->
      if C.is_self core ie.Txn_log.in_origin then C.note_own_txid core ie.Txn_log.in_txid)
    (Txn_log.intents (log ep));
  Hashtbl.iter
    (fun item st ->
      st.ei_applied <- Txn_log.max_contiguous_seal (log ep) ~item;
      st.ei_fence <- Stdlib.max st.ei_fence (Txn_log.epoch_floor (log ep) ~item);
      List.iter
        (fun (it, _epoch, seal) ->
          if String.equal it item then
            List.iter
              (fun (i : Txn_log.intent) -> Hashtbl.replace st.ei_sealed i.Txn_log.i_txid ())
              seal)
        (Txn_log.epoch_seals (log ep));
      List.iter
        (fun (ie : Txn_log.intent_entry) ->
          if String.equal ie.Txn_log.in_item item && C.is_self core ie.Txn_log.in_origin then
            Hashtbl.replace st.ei_buffer ie.Txn_log.in_txid
              {
                Txn_log.i_txid = ie.Txn_log.in_txid;
                i_origin = ie.Txn_log.in_origin;
                i_delta = ie.Txn_log.in_delta;
              })
        (Txn_log.unsealed_intents (log ep));
      ensure_pump ep st)
    ep.items

(* ROADMAP item 1: this is the non-regular rebuild — initial + Σ committed
   2PC deltas, with the surviving value under amnesia — and it ignores
   the sealed epoch deltas, so an epoch row lost with the WAL comes back
   short while [recover] restores the applied prefix from the seal
   records. Kept as is until that fix lands; the exact rebuild is
   initial + Σ sealed intents, plus a row base for epochs at or below a
   repair floor. *)
let rebuild_row ep ~trust_txn_log ~item ~initial =
  if trust_txn_log then initial + C.committed_2pc_delta ep.core ~item
  else match C.amount_of ep.core ~item with Some v -> v | None -> initial

let tainted_by_log_loss = true

let join_snapshot ep ~want (snap : Protocol.snapshot) =
  let epochs =
    Hashtbl.fold
      (fun item st acc -> if want item then (item, st.ei_applied) :: acc else acc)
      ep.items []
  in
  { snap with Protocol.epochs }

(* The installed rows fold every donor seal through the donor's applied
   epoch: record that as this log's floor so those seals are never
   re-applied. *)
let raise_floor ep st ~applied =
  Txn_log.record_epoch_floor (log ep) ~item:st.ei_item ~epoch:applied ~at:(C.now ep.core)

let join_install ep (snap : Protocol.snapshot) =
  List.iter
    (fun (item, applied) ->
      match Hashtbl.find_opt ep.items item with
      | Some st when applied > st.ei_applied ->
          raise_floor ep st ~applied;
          st.ei_applied <- applied
      | Some _ | None -> ())
    snap.Protocol.epochs

(* After amnesia, where promises were lost with the log, the repaired
   acceptor is also fenced out of the next epoch so its forgotten promise
   cannot be betrayed. *)
let repair_install ep ~item ~donor:_ (snap : Protocol.snapshot) ~k =
  (match (Hashtbl.find_opt ep.items item, snap.Protocol.epochs) with
  | Some st, (_, donor_applied) :: _ ->
      if donor_applied > 0 then raise_floor ep st ~applied:donor_applied;
      st.ei_applied <- Stdlib.max st.ei_applied donor_applied;
      if ep.core.C.amnesia then st.ei_fence <- Stdlib.max st.ei_fence (donor_applied + 1);
      Hashtbl.reset st.ei_stash
  | _ -> ());
  k ()

(* Own durably logged intents no logged seal contains yet — the class's
   in-doubt set (quarantined items excluded). *)
let backlog ep =
  List.length
    (List.filter
       (fun (ie : Txn_log.intent_entry) -> not (C.is_quarantined ep.core ~item:ie.Txn_log.in_item))
       (Txn_log.unsealed_intents (log ep)))
