(* Immediate Update: primary-copy 2PC for non-regular products, with this
   site as coordinator of its own updates and participant in its peers'.
   Crash consistency comes from the durable protocol log: presumed abort
   while the log is intact, cooperative termination for in-doubt
   participants, and full-cohort adjudication once the log lost records. *)

open Avdb_net
open Avdb_store
open Avdb_txn
module C = Site_core

let name = "immediate"

type participant_txn = {
  p_txn : Database.txn;
  p_coordinator : Address.t;
  p_cohort : Address.t list;  (* everyone prepared, coordinator excluded *)
  p_item : string;
  p_delta : int;
  p_span : Avdb_obs.Span.id;  (* open from prepare until the decision *)
  mutable p_queries : int;  (* termination-protocol attempts so far *)
}

type coord = {
  machine : Two_phase.Coordinator.t;
  finish : Update.outcome -> unit;
  mutable local_txn : Database.txn option;
  mutable local_finalized : bool;
}

type t = {
  core : C.t;
  mutable locks : Lock_manager.t;
  (* Prepared (Ready-voted, undecided) transactions at this participant:
     exactly the txids a decision may still apply or revert. *)
  participant_txns : (int, participant_txn) Hashtbl.t;
  coordinators : (int, coord) Hashtbl.t;
}

let new_locks core =
  Lock_manager.create ~engine:(C.engine core) ~timeout:(C.config core).Config.lock_timeout

let create core =
  {
    core;
    locks = new_locks core;
    participant_txns = Hashtbl.create 16;
    coordinators = Hashtbl.create 16;
  }

let metrics im = im.core.C.metrics
let log im = im.core.C.txn_log
let config im = C.config im.core

let bump_termination_queries im =
  let m = metrics im in
  m.Update.Metrics.termination_queries <- m.Update.Metrics.termination_queries + 1

(* Finalise a prepared transaction at this participant (from a Decision
   message or the termination protocol). A txid not prepared here —
   refused, already decided or unknown — is ignored. *)
let finalize_participant im ~txid decision =
  let core = im.core in
  match Hashtbl.find_opt im.participant_txns txid with
  | None -> ()
  | Some p ->
      (match decision with
      | Two_phase.Commit ->
          Database.commit p.p_txn;
          C.record_history core ~item:p.p_item ~delta:p.p_delta ~path:"immediate"
      | Two_phase.Abort -> Database.abort p.p_txn);
      Hashtbl.remove im.participant_txns txid;
      Lock_manager.release_all im.locks ~owner:txid;
      (match decision with
      | Two_phase.Commit -> C.span_field core p.p_span "decision" "commit"
      | Two_phase.Abort ->
          C.span_field core p.p_span "decision" "abort";
          C.span_warn core p.p_span);
      C.span_end core p.p_span;
      Txn_log.record_outcome (log im) ~txid decision ~at:(C.now core)

(* Full-cohort adjudication: the storage-fault extension of cooperative
   termination. When a coordinator answers [No_record] (its protocol log
   lost the txid), or when our own coordination's outcome record may be
   among what our log lost, presumed abort is unsound — the decision may
   have existed and been erased. One sweep asks every fellow at once:

   - any [Peer_decided] answer wins: it is a durable record of the one
     decision ever taken;
   - any [Peer_will_refuse] proves commit impossible — the pledge is
     only given by a non-amnesiac site that has never voted Ready, and
     commit needs every vote;
   - a complete sweep of unanimous [Peer_prepared] makes abort
     consistent with every surviving effect: a site that applied the
     commit either still holds its record (contradiction) or has since
     lost its log — and a log-losing site quarantines and repairs the
     item, erasing the effect. An amnesiac coordinator never decides
     spontaneously, so no commit record can appear after the sweep.

   Incomplete sweeps (timeouts) retry, budget-bounded so a dead cohort
   cannot keep the event queue alive; on exhaustion the doubt stands. *)
let max_adjudication_sweeps = 64

let adjudicate im ~txid ~fellows ~still_wanted ~decide =
  let core = im.core in
  let decide d = if still_wanted () then decide d in
  if fellows = [] then decide Two_phase.Abort
  else begin
    let rec sweep n =
      if still_wanted () && not (C.is_down core) then begin
        if n >= max_adjudication_sweeps then
          C.trace core ~level:Avdb_sim.Trace.Warn ~category:"2pc"
            "tx%d adjudication gave up after %d sweeps at %a" txid n Address.pp core.C.addr
        else begin
          let outstanding = ref (List.length fellows) in
          let decided = ref None in
          let refused = ref false in
          let complete = ref true in
          let finish_one () =
            decr outstanding;
            if !outstanding = 0 then begin
              match !decided with
              | Some d -> decide d
              | None ->
                  if !refused || !complete then decide Two_phase.Abort
                  else
                    C.after core ~delay:(config im).Config.repair_interval (fun () ->
                        sweep (n + 1))
            end
          in
          List.iter
            (fun fellow ->
              bump_termination_queries im;
              Rpc.call (C.rpc core) ~src:core.C.addr ~dst:fellow
                ~timeout:(config im).Config.rpc_timeout
                (Protocol.Peer_decision_query { txid })
                (C.fenced core (fun response ->
                     (match response with
                     | Ok (Protocol.Peer_decision_status { status; _ }) -> (
                         match status with
                         | Protocol.Peer_decided d ->
                             if !decided = None then decided := Some d
                         | Protocol.Peer_will_refuse -> refused := true
                         | Protocol.Peer_prepared -> ())
                     | Ok _ | Error _ -> complete := false);
                     finish_one ())))
            fellows
        end
      end
    in
    sweep 0
  end

(* Termination protocol (cooperative, Bernstein et al. §7): a participant
   left prepared past the decision timeout round-robins over the
   coordinator, the base and its fellow cohort members.

   - The coordinator answers {!Protocol.Query_decision} from its durable
     log: [Decided] resolves the doubt, [Unknown_txn] means it never
     started the transaction (Start is logged before the prepare
     broadcast), so abort is safe (presumed abort).
   - A cohort member answers {!Protocol.Peer_decision_query}:
     [Peer_decided] resolves; [Peer_will_refuse] is a durable pledge
     never to vote Ready, and since commit requires every cohort vote the
     asker may abort; [Peer_prepared] means the peer is equally in doubt.

   No heuristic decision is ever taken: if nobody knows, the participant
   stays prepared (holding its lock) and retries. The retry budget is
   bounded so a permanently-dead coordinator cannot keep the event queue
   alive forever; resolution is then driven by the recovered
   coordinator's decision re-broadcast, or by this site's own next
   recovery restarting the checks with a fresh budget. *)
let max_decision_queries = 64

(* The cohort minus this site and the coordinator. *)
let fellows_of im ~coordinator cohort =
  List.filter
    (fun a -> not (C.is_self im.core a || Address.equal a coordinator))
    cohort

let termination_targets im ~coordinator ~cohort ~item =
  (* the item's base first among the fellows: it is the one whose ack
     defines user-visible completion, so it is the most likely to know *)
  let base, rest =
    List.partition
      (Address.equal (C.base_addr_for im.core ~item))
      (fellows_of im ~coordinator cohort)
  in
  coordinator :: (base @ rest)

let rec schedule_termination_check im ~txid =
  let core = im.core in
  C.after core ~delay:(config im).Config.decision_timeout (fun () ->
      match Hashtbl.find_opt im.participant_txns txid with
      | None -> () (* decision arrived meanwhile *)
      | Some p ->
          if C.is_down core then schedule_termination_check im ~txid
          else if Mutation.enabled Mutation.Unilateral_abort then begin
            (* Mutation: the removed [abort_pending] path — give up on
               the in-doubt transaction without asking anyone. If the
               coordinator decided Commit, this site diverges. *)
            C.trace core ~level:Avdb_sim.Trace.Warn ~category:"2pc"
              "tx%d unilaterally aborted at %a (mutation)" txid Address.pp core.C.addr;
            finalize_participant im ~txid Two_phase.Abort
          end
          else if p.p_queries >= max_decision_queries then
            C.trace core ~level:Avdb_sim.Trace.Warn ~category:"2pc"
              "tx%d still in doubt at %a after %d queries; blocked until the coordinator \
               resurfaces"
              txid Address.pp core.C.addr p.p_queries
          else begin
            let targets =
              termination_targets im ~coordinator:p.p_coordinator ~cohort:p.p_cohort
                ~item:p.p_item
            in
            let target = List.nth targets (p.p_queries mod List.length targets) in
            p.p_queries <- p.p_queries + 1;
            bump_termination_queries im;
            if C.tracing core then
              C.span_instant core ~category:"2pc" "2pc.termination_query"
                ~fields:
                  [ ("txid", string_of_int txid); ("target", Address.to_string target) ];
            let ask request k =
              Rpc.call (C.rpc core) ~src:core.C.addr ~dst:target
                ~timeout:(config im).Config.rpc_timeout ~retry:(C.retry_policy core) request
                (C.fenced core (fun response ->
                     match k response with
                     | Some () -> ()
                     | None -> schedule_termination_check im ~txid))
            in
            if Address.equal target p.p_coordinator then
              ask (Protocol.Query_decision { txid }) (function
                | Ok (Protocol.Decision_status { status; _ }) -> (
                    match status with
                    | Protocol.Decided decision ->
                        C.trace core ~category:"2pc"
                          "tx%d outcome recovered via termination protocol at %a" txid
                          Address.pp core.C.addr;
                        Some (finalize_participant im ~txid decision)
                    | Protocol.Still_pending -> None
                    | Protocol.Unknown_txn ->
                        C.trace core ~category:"2pc" "tx%d presumed aborted at %a" txid
                          Address.pp core.C.addr;
                        Some (finalize_participant im ~txid Two_phase.Abort)
                    | Protocol.No_record ->
                        (* the coordinator's log lost the txid: presumed
                           abort is unsound there, so adjudicate with the
                           full cohort *)
                        C.trace core ~level:Avdb_sim.Trace.Warn ~category:"2pc"
                          "tx%d coordinator lost its record; adjudicating at %a" txid
                          Address.pp core.C.addr;
                        Some
                          (adjudicate im ~txid
                             ~fellows:(fellows_of im ~coordinator:p.p_coordinator p.p_cohort)
                             ~still_wanted:(fun () -> Hashtbl.mem im.participant_txns txid)
                             ~decide:(fun d -> finalize_participant im ~txid d)))
                | Ok _ | Error _ -> None)
            else
              ask (Protocol.Peer_decision_query { txid }) (function
                | Ok (Protocol.Peer_decision_status { status; _ }) -> (
                    match status with
                    | Protocol.Peer_decided decision ->
                        C.trace core ~category:"2pc"
                          "tx%d outcome learned from cohort member %a at %a" txid Address.pp
                          target Address.pp core.C.addr;
                        Some (finalize_participant im ~txid decision)
                    | Protocol.Peer_will_refuse ->
                        C.trace core ~category:"2pc" "tx%d aborted at %a (%a pledged to refuse)"
                          txid Address.pp core.C.addr Address.pp target;
                        Some (finalize_participant im ~txid Two_phase.Abort)
                    | Protocol.Peer_prepared -> None)
                | Ok _ | Error _ -> None)
          end)

let handle_prepare im ~span ~txid ~coordinator ~cohort ~item ~delta ~reply =
  let core = im.core in
  (* Participant span: open from the prepare through lock wait and
     tentative apply, closed by the decision (it outlives the RPC span,
     which only covers prepare-to-vote). *)
  let psp = C.span_start core ?parent:span ~category:"2pc" "2pc.participant" in
  C.span_field_int core psp "txid" txid;
  C.span_field core psp "item" item;
  let refuse () =
    C.span_field core psp "vote" "refuse";
    C.span_warn core psp;
    C.span_end core psp
  in
  (* A refusal pledge (cooperative termination) or an already-finalised
     outcome poisons the txid: a late or duplicated prepare must never
     re-open it. *)
  let poisoned () =
    Txn_log.is_refused (log im) ~txid
    ||
    match Txn_log.find (log im) ~txid with
    | Some { Txn_log.outcome = Some _; _ } -> true
    | Some _ | None -> false
  in
  (* A quarantined replica must not vote Ready: its row is untrusted and
     under repair. Refusing also freezes new commits on the item
     cluster-wide until the repair snapshot is complete. *)
  if poisoned () || C.is_quarantined core ~item || not (C.item_known core ~item) then begin
    refuse ();
    reply (Protocol.Vote { txid; vote = Two_phase.Refuse })
  end
  else
    Lock_manager.acquire im.locks ~owner:txid ~key:item
      (C.fenced core (fun lock_result ->
           let can_apply =
             match lock_result with
             | Error `Timeout -> false
             | Ok () -> (
                 (* re-check the poison: a refusal pledge given to a cohort
                    member while we waited for the lock binds this vote *)
                 (not (poisoned ()))
                 &&
                 match C.amount_of core ~item with
                 | Some current -> current + delta >= 0
                 | None -> false)
           in
           let can_apply =
             can_apply
             &&
             let txn = Database.begin_txn core.C.db in
             match Database.add_int txn ~table:C.stock_table ~key:item ~col:"amount" delta with
             | Ok _ ->
                 Hashtbl.replace im.participant_txns txid
                   { p_txn = txn; p_coordinator = coordinator; p_cohort = cohort;
                     p_item = item; p_delta = delta; p_span = psp; p_queries = 0 };
                 true
             | Error _ ->
                 Database.abort txn;
                 false
           in
           let vote = if can_apply then Two_phase.Ready else Two_phase.Refuse in
           if vote = Two_phase.Refuse then begin
             Lock_manager.release_all im.locks ~owner:txid;
             refuse ()
           end
           else begin
             C.span_field core psp "vote" "ready";
             (* The prepared record: logged in the same atomic event as the
                Ready vote, so a crash can never leave us Ready-but-unlogged. *)
             if Txn_log.find (log im) ~txid = None then
               Txn_log.record_start (log im) ~txid ~coordinator ~cohort ~item ~delta
                 ~at:(C.now core);
             schedule_termination_check im ~txid
           end;
           reply (Protocol.Vote { txid; vote })))

(* What this site knows about [txid], for both decision queries: [known]
   while it coordinates the transaction right now, [decided] once an
   outcome is logged, [in_doubt] while the outcome is open, [unknown]
   under amnesia when the log holds nothing, and [pledge] otherwise. *)
let decision_known im ~txid ~known ~in_doubt ~decided ~unknown ~pledge =
  let core = im.core in
  match Hashtbl.find_opt im.coordinators txid with
  | Some coord -> known (Two_phase.Coordinator.decision coord.machine)
  | None -> (
      match Txn_log.find (log im) ~txid with
      | Some { Txn_log.outcome = Some d; _ } -> decided d
      | Some { Txn_log.outcome = None; coordinator; _ } when C.is_self core coordinator ->
          if core.C.amnesia then
            (* the outcome record may have been lost with the log damage
               rather than never written: recovery is adjudicating this
               entry with the cohort; hold askers off until it resolves *)
            in_doubt
          else begin
            (* We coordinated this txn but hold neither an in-memory
               machine (reset on recovery) nor a logged outcome: we
               crashed before deciding. Outcomes are logged before any
               Commit is broadcast, so abort is the only possible verdict
               (presumed abort); log it so repeated queries agree. *)
            Txn_log.record_outcome (log im) ~txid Two_phase.Abort ~at:(C.now core);
            decided Two_phase.Abort
          end
      | Some { Txn_log.outcome = None; _ } ->
          (* we know the txn but not its outcome: only possible while it
             is still being coordinated elsewhere *)
          in_doubt
      | None -> if core.C.amnesia then unknown else pledge ())

let handle_query_decision im ~txid ~reply =
  let status =
    decision_known im ~txid
      ~known:(function Some d -> Protocol.Decided d | None -> Protocol.Still_pending)
      ~in_doubt:Protocol.Still_pending
      ~decided:(fun d -> Protocol.Decided d)
      ~unknown:Protocol.No_record
      ~pledge:(fun () -> Protocol.Unknown_txn)
  in
  reply (Protocol.Decision_status { txid; status })

(* Cooperative termination, server side: tell a fellow in-doubt cohort
   member what we know. Answering a query for a transaction we have never
   heard of logs a durable refusal pledge first — from then on any late
   prepare for that txid is refused, which is what makes the asker's
   abort sound. Under amnesia the pledge would be a lie (we may have voted
   Ready and lost the record): answer "equally in doubt" instead, and let
   the asker find a surviving record or adjudicate elsewhere. *)
let handle_peer_decision_query im ~txid ~reply =
  let core = im.core in
  let status =
    decision_known im ~txid
      ~known:(function Some d -> Protocol.Peer_decided d | None -> Protocol.Peer_prepared)
      ~in_doubt:Protocol.Peer_prepared
      ~decided:(fun d -> Protocol.Peer_decided d)
      ~unknown:Protocol.Peer_prepared
      ~pledge:(fun () ->
        Txn_log.record_refused (log im) ~txid ~at:(C.now core);
        if C.tracing core then
          C.span_instant core ~category:"2pc" "2pc.refuse_pledge"
            ~fields:[ ("txid", string_of_int txid) ];
        Protocol.Peer_will_refuse)
  in
  reply (Protocol.Peer_decision_status { txid; status })

(* --- Immediate Update (coordinator side) --- *)

let submit im ~item ~delta ~finish =
  let core = im.core in
  let txid = C.fresh_txid core in
  let root = C.span_start core ~category:"update" "update.immediate" in
  C.span_field core root "item" item;
  C.span_field_int core root "delta" delta;
  C.span_field_int core root "txid" txid;
  let finish = C.finish_root core root finish in
  (* Cohort = the item's replica set (everyone under full replication);
     user-visible completion keys on the item's base, not a global one. *)
  let participant_addrs = C.peers_for core ~item in
  let machine =
    Two_phase.Coordinator.create ~txid ~participants:participant_addrs
      ~base:(C.base_addr_for core ~item)
  in
  Txn_log.record_start (log im) ~txid ~coordinator:core.C.addr ~cohort:participant_addrs
    ~item ~delta ~at:(C.now core);
  let coord = { machine; finish; local_txn = None; local_finalized = false } in
  Hashtbl.add im.coordinators txid coord;
  (* Phase spans: prepare runs from Broadcast_prepare until a decision is
     reached; the decision round from the broadcast until Completed. *)
  let prepare_span = ref None and decision_span = ref None in
  let close_phase r =
    match !r with
    | Some sp ->
        r := None;
        C.span_end core sp
    | None -> ()
  in
  let rec execute actions = List.iter execute_one actions
  and execute_one action =
    match action with
    | Two_phase.Coordinator.Broadcast_prepare ->
        let psp = C.span_start core ~parent:root ~category:"2pc" "2pc.prepare" in
        prepare_span := Some psp;
        (* Prepare and Decision deliberately run without the retry policy:
           a lost prepare is a Refuse vote, a lost decision is recovered by
           the participant's termination protocol. *)
        List.iter
          (fun p ->
            Rpc.call (C.rpc core) ~src:core.C.addr ~dst:p
              ~timeout:(config im).Config.prepare_timeout ~span:psp
              (Protocol.Prepare
                 { txid; coordinator = core.C.addr; cohort = participant_addrs; item; delta })
              (C.fenced core (fun response ->
                   match response with
                   | Ok (Protocol.Vote { txid = _; vote }) ->
                       execute (Two_phase.Coordinator.on_vote machine ~from:p vote)
                   | Ok _ | Error _ ->
                       execute (Two_phase.Coordinator.on_vote machine ~from:p Two_phase.Refuse))))
          participant_addrs;
        C.after core ~delay:(config im).Config.prepare_timeout (fun () ->
            execute (Two_phase.Coordinator.on_vote_timeout machine))
    | Two_phase.Coordinator.Broadcast_decision decision ->
        close_phase prepare_span;
        let dsp = C.span_start core ~parent:root ~category:"2pc" "2pc.decision" in
        C.span_field core dsp "decision"
          (match decision with Two_phase.Commit -> "commit" | Two_phase.Abort -> "abort");
        decision_span := Some dsp;
        (* Log the outcome before telling anyone (presumed abort depends on
           "no record => never decided"), then finalise the local part. *)
        Txn_log.record_outcome (log im) ~txid decision ~at:(C.now core);
        if not coord.local_finalized then begin
          coord.local_finalized <- true;
          (match coord.local_txn with
          | Some txn -> (
              match decision with
              | Two_phase.Commit ->
                  Database.commit txn;
                  C.record_history core ~item ~delta ~path:"immediate"
              | Two_phase.Abort -> Database.abort txn)
          | None -> ());
          Lock_manager.release_all im.locks ~owner:txid
        end;
        List.iter
          (fun p ->
            Rpc.call (C.rpc core) ~src:core.C.addr ~dst:p
              ~timeout:(config im).Config.ack_timeout ~span:dsp
              (Protocol.Decision { txid; decision })
              (C.fenced core (fun response ->
                   match response with
                   | Ok (Protocol.Decision_ack _) ->
                       execute (Two_phase.Coordinator.on_ack machine ~from:p)
                   | Ok _ | Error _ -> ())))
          participant_addrs;
        C.after core ~delay:(config im).Config.ack_timeout (fun () ->
            execute (Two_phase.Coordinator.on_ack_timeout machine))
    | Two_phase.Coordinator.Completed decision ->
        close_phase prepare_span;
        close_phase decision_span;
        C.trace core ~category:"2pc" "tx%d %a at coordinator %a" txid Two_phase.pp_decision
          decision Address.pp core.C.addr;
        Txn_log.record_outcome (log im) ~txid decision ~at:(C.now core);
        let outcome =
          match decision with
          | Two_phase.Commit -> Update.Applied Update.Immediate
          | Two_phase.Abort -> Update.Rejected Update.Txn_aborted
        in
        coord.finish outcome
    | Two_phase.Coordinator.Cleanup _ ->
        (* The coordination is closed (all acks, or we gave up waiting):
           mark it ended so recovery does not re-broadcast. Stragglers
           that missed the decision resolve through the pull-side
           termination protocol, served from the log. *)
        Txn_log.record_end (log im) ~txid ~at:(C.now core);
        Hashtbl.remove im.coordinators txid
  in
  (* Local participation: lock, tentatively apply, derive the local vote. *)
  Lock_manager.acquire im.locks ~owner:txid ~key:item
    (C.fenced core (fun lock_result ->
         let local_vote =
           match lock_result with
           | Error `Timeout -> Two_phase.Refuse
           | Ok () -> (
               match C.amount_of core ~item with
               | Some current when current + delta >= 0 -> (
                   let txn = Database.begin_txn core.C.db in
                   match
                     Database.add_int txn ~table:C.stock_table ~key:item ~col:"amount" delta
                   with
                   | Ok _ ->
                       coord.local_txn <- Some txn;
                       Two_phase.Ready
                   | Error _ ->
                       Database.abort txn;
                       Two_phase.Refuse)
               | Some _ | None -> Two_phase.Refuse)
         in
         if local_vote = Two_phase.Refuse then Lock_manager.release_all im.locks ~owner:txid;
         execute (Two_phase.Coordinator.start machine ~local_vote)))

(* --- protocol-log replay --- *)

(* Re-install one in-doubt participant transaction from its durable Start
   record: re-acquire the exclusive lock (always free right after
   recovery — at most one in-doubt txn can exist per item, precisely
   because prepare holds the exclusive lock), redo the tentative write
   and restart the termination checks with a fresh budget. *)
let reinstall_in_doubt im (e : Txn_log.entry) =
  let core = im.core in
  let txid = e.Txn_log.txid in
  Lock_manager.acquire im.locks ~owner:txid ~key:e.Txn_log.item
    (C.fenced core (fun lock_result ->
         match lock_result with
         | Error `Timeout ->
             failwith (Printf.sprintf "Site.recover: lock unavailable for in-doubt tx%d" txid)
         | Ok () ->
             let txn = Database.begin_txn core.C.db in
             (match
                Database.add_int txn ~table:C.stock_table ~key:e.Txn_log.item ~col:"amount"
                  e.Txn_log.delta
              with
             | Ok _ -> ()
             | Error err -> failwith (Printf.sprintf "Site.recover: re-apply tx%d: %s" txid err));
             let psp = C.span_start core ~category:"2pc" "2pc.participant.recovered" in
             C.span_field_int core psp "txid" txid;
             C.span_field core psp "item" e.Txn_log.item;
             Hashtbl.replace im.participant_txns txid
               {
                 p_txn = txn;
                 p_coordinator = e.Txn_log.coordinator;
                 p_cohort = e.Txn_log.cohort;
                 p_item = e.Txn_log.item;
                 p_delta = e.Txn_log.delta;
                 p_span = psp;
                 p_queries = 0;
               };
             let m = metrics im in
             m.Update.Metrics.in_doubt_recovered <- m.Update.Metrics.in_doubt_recovered + 1;
             C.trace core ~category:"2pc" "tx%d re-installed in doubt at %a" txid Address.pp
               core.C.addr;
             schedule_termination_check im ~txid))

(* A coordination whose decision is logged but whose ack round never
   closed: rebuild the machine in the ack-collection phase and push the
   decision again, a bounded number of rounds (the participants' pull
   side is the unconditional safety net, so giving up the push cannot
   lose the outcome — it only delays stragglers). *)
let install_recovered_coordinator im ~txid ~cohort ~item decision =
  let core = im.core in
  if cohort = [] then Txn_log.record_end (log im) ~txid ~at:(C.now core)
  else begin
    let machine =
      Two_phase.Coordinator.recovered ~txid ~participants:cohort
        ~base:(C.base_addr_for core ~item) decision
    in
    let coord =
      { machine; finish = (fun _ -> ()); local_txn = None; local_finalized = true }
    in
    Hashtbl.replace im.coordinators txid coord;
    let rec execute actions = List.iter execute_one actions
    and execute_one = function
      | Two_phase.Coordinator.Broadcast_decision d ->
          let m = metrics im in
          m.Update.Metrics.decision_rebroadcasts <- m.Update.Metrics.decision_rebroadcasts + 1;
          if C.tracing core then
            C.span_instant core ~category:"2pc" "2pc.rebroadcast"
              ~fields:
                [
                  ("txid", string_of_int txid);
                  ("decision", Format.asprintf "%a" Two_phase.pp_decision d);
                ];
          List.iter
            (fun p ->
              Rpc.call (C.rpc core) ~src:core.C.addr ~dst:p
                ~timeout:(config im).Config.ack_timeout
                (Protocol.Decision { txid; decision = d })
                (C.fenced core (fun response ->
                     match response with
                     | Ok (Protocol.Decision_ack _) ->
                         execute (Two_phase.Coordinator.on_ack machine ~from:p)
                     | Ok _ | Error _ -> ())))
            cohort
      | Two_phase.Coordinator.Completed _ ->
          (* the submitting client died with the crashed incarnation;
             [recovered] marks completion as already emitted, so this
             cannot happen — and must never call anyone's continuation *)
          ()
      | Two_phase.Coordinator.Cleanup _ ->
          Txn_log.record_end (log im) ~txid ~at:(C.now core);
          Hashtbl.remove im.coordinators txid
      | Two_phase.Coordinator.Broadcast_prepare -> ()
    in
    let rec round n =
      if Hashtbl.mem im.coordinators txid && not (C.is_down core) then
        if n >= (config im).Config.rebroadcast_rounds then
          C.trace core ~level:Avdb_sim.Trace.Warn ~category:"2pc"
            "tx%d rebroadcast gave up after %d rounds at %a (pull path takes over)" txid n
            Address.pp core.C.addr
        else begin
          execute (Two_phase.Coordinator.rebroadcast machine);
          C.after core ~delay:(config im).Config.rebroadcast_interval (fun () -> round (n + 1))
        end
    in
    round 0
  end

let unresolved im ~txid () =
  match Txn_log.find (log im) ~txid with
  | Some { Txn_log.outcome = None; _ } -> true
  | Some _ | None -> false

(* Adjudicate one of our own outcome-less coordinations after log damage
   (amnesia): presumed abort is off the table — the outcome record may
   be among what the log lost — so ask the cohort. Any surviving
   decision record wins; otherwise abort is provably consistent (see
   [adjudicate]). The verdict is logged and pushed like any recovered
   decision. *)
let adjudicate_own im (e : Txn_log.entry) =
  let core = im.core in
  let txid = e.Txn_log.txid in
  adjudicate im ~txid
    ~fellows:(List.filter (fun a -> not (C.is_self core a)) e.Txn_log.cohort)
    ~still_wanted:(unresolved im ~txid)
    ~decide:(fun d ->
      C.trace core ~category:"2pc" "tx%d adjudicated %a at recovering coordinator %a" txid
        Two_phase.pp_decision d Address.pp core.C.addr;
      Txn_log.record_outcome (log im) ~txid d ~at:(C.now core);
      install_recovered_coordinator im ~txid ~cohort:e.Txn_log.cohort ~item:e.Txn_log.item d)

(* A prepared participant entry on a quarantined item. The tentative
   write must NOT be redone: the row is untrusted and under repair, and
   the repair snapshot plus its pending-transaction watches carry the
   data. What remains is bookkeeping — learn the outcome and record it,
   so the txid is poisoned against late prepares and fellow askers get a
   real answer instead of an eternal [Peer_prepared]. *)
let resolve_orphan im (e : Txn_log.entry) =
  let core = im.core in
  let txid = e.Txn_log.txid in
  let coordinator = e.Txn_log.coordinator in
  let record d = Txn_log.record_outcome (log im) ~txid d ~at:(C.now core) in
  let rec poll attempt =
    if attempt < max_decision_queries && unresolved im ~txid () && not (C.is_down core) then
      Rpc.call (C.rpc core) ~src:core.C.addr ~dst:coordinator
        ~timeout:(config im).Config.rpc_timeout
        (Protocol.Query_decision { txid })
        (C.fenced core (fun response ->
             match response with
             | Ok (Protocol.Decision_status { status = Protocol.Decided d; _ }) -> record d
             | Ok (Protocol.Decision_status { status = Protocol.Unknown_txn; _ }) ->
                 record Two_phase.Abort
             | Ok (Protocol.Decision_status { status = Protocol.No_record; _ }) ->
                 adjudicate im ~txid
                   ~fellows:(fellows_of im ~coordinator e.Txn_log.cohort)
                   ~still_wanted:(unresolved im ~txid) ~decide:record
             | Ok _ | Error _ ->
                 C.after core ~delay:(config im).Config.repair_interval (fun () ->
                     poll (attempt + 1))))
  in
  poll 0

(* --- lifecycle --- *)

(* 2PC state is per transaction, never per item. *)
let adopt _ ~item:_ = ()

let serve im ~src:_ ~span request ~reply =
  match request with
  | Protocol.Prepare { txid; coordinator; cohort; item; delta } ->
      handle_prepare im ~span ~txid ~coordinator ~cohort ~item ~delta ~reply
  | Protocol.Decision { txid; decision } ->
      finalize_participant im ~txid decision;
      reply (Protocol.Decision_ack { txid })
  | Protocol.Query_decision { txid } -> handle_query_decision im ~txid ~reply
  | Protocol.Peer_decision_query { txid } -> handle_peer_decision_query im ~txid ~reply
  | _ -> reply (Protocol.Bad_request "not an immediate request")

(* Prepared transactions, coordinations and locks are process memory:
   the protocol log is what survives. *)
let crash im =
  Hashtbl.reset im.participant_txns;
  Hashtbl.reset im.coordinators;
  im.locks <- new_locks im.core

(* Replay the durable protocol log into live 2PC state. Participant-side
   in-doubt entries are re-installed as prepared transactions; our own
   coordinations are closed out: no outcome logged means we crashed
   before deciding, and since the outcome record always precedes the
   Commit broadcast, abort is the only possible verdict (presumed
   abort) — log it and tell the cohort. A logged decision without an
   [End] restarts the ack round. Both presumptions are gated on an
   intact log: under amnesia the entry is adjudicated with the cohort
   instead, and in-doubt entries on quarantined items resolve
   outcome-only. *)
let recover im =
  let core = im.core in
  let entries = Txn_log.entries (log im) in
  (* keep the txid allocator above everything we ever coordinated *)
  List.iter
    (fun (e : Txn_log.entry) ->
      if C.is_self core e.Txn_log.coordinator then C.note_own_txid core e.Txn_log.txid)
    entries;
  List.iter
    (fun (e : Txn_log.entry) ->
      let txid = e.Txn_log.txid in
      if C.is_self core e.Txn_log.coordinator then begin
        match e.Txn_log.outcome with
        | None when core.C.amnesia ->
            C.trace core ~level:Avdb_sim.Trace.Warn ~category:"2pc"
              "tx%d outcome possibly lost; adjudicating at %a" txid Address.pp core.C.addr;
            adjudicate_own im e
        | None ->
            C.trace core ~level:Avdb_sim.Trace.Warn ~category:"2pc"
              "tx%d presumed aborted on recovery at %a" txid Address.pp core.C.addr;
            Txn_log.record_outcome (log im) ~txid Two_phase.Abort ~at:(C.now core);
            install_recovered_coordinator im ~txid ~cohort:e.Txn_log.cohort
              ~item:e.Txn_log.item Two_phase.Abort
        | Some d when not e.Txn_log.ended ->
            install_recovered_coordinator im ~txid ~cohort:e.Txn_log.cohort
              ~item:e.Txn_log.item d
        | Some _ -> ()
      end
      else if e.Txn_log.outcome = None then begin
        if C.is_quarantined core ~item:e.Txn_log.item then resolve_orphan im e
        else reinstall_in_doubt im e
      end)
    entries

(* A non-regular item's committed row is
     initial + Σ deltas of protocol-log entries with outcome Commit
   (the outcome record and the local apply are one atomic event) —
   trustworthy only while the protocol log itself lost nothing. Under
   amnesia the item is quarantined and repaired remotely instead; any
   placeholder works, and the surviving value least surprises. *)
let rebuild_row im ~trust_txn_log ~item ~initial =
  if trust_txn_log then initial + C.committed_2pc_delta im.core ~item
  else match C.amount_of im.core ~item with Some v -> v | None -> initial

let tainted_by_log_loss = true

(* Undo-based transactions write in place, so the raw table shows
   tentative 2PC deltas that may yet abort. Serve committed state:
   subtract every prepared-but-undecided delta, and list those
   transactions as [pending] so a repairing client can watch them
   resolve — a commit after the snapshot is otherwise invisible to it,
   non-regular items having no sync counters. *)
let join_snapshot im ~want (snap : Protocol.snapshot) =
  let core = im.core in
  let tentative = Hashtbl.create 8 in
  let note_tentative item delta =
    Hashtbl.replace tentative item
      (delta + Option.value ~default:0 (Hashtbl.find_opt tentative item))
  in
  let pending = ref [] in
  Hashtbl.iter
    (fun txid (p : participant_txn) ->
      if want p.p_item then begin
        note_tentative p.p_item p.p_delta;
        pending := (txid, Address.to_int p.p_coordinator, p.p_item, p.p_delta) :: !pending
      end)
    im.participant_txns;
  Hashtbl.iter
    (fun txid (c : coord) ->
      if Two_phase.Coordinator.decision c.machine = None then
        match Txn_log.find (log im) ~txid with
        | Some e when want e.Txn_log.item ->
            if c.local_txn <> None && not c.local_finalized then
              note_tentative e.Txn_log.item e.Txn_log.delta;
            pending :=
              (txid, C.site_index core, e.Txn_log.item, e.Txn_log.delta) :: !pending
        | Some _ | None -> ())
    im.coordinators;
  let rows =
    List.map
      (fun (item, amount, regular) ->
        (item, amount - Option.value ~default:0 (Hashtbl.find_opt tentative item), regular))
      snap.Protocol.rows
  in
  { snap with Protocol.rows; pending = !pending }

(* A joiner starts with no 2PC state of its own: the committed rows are
   all it needs. *)
let join_install _ _ = ()

(* Watch one of the donor's in-flight transactions on a repaired item
   resolve, applying a commit exactly once. *)
let rec watch_pending im ~item ~txid ~coordinator ~donor ~delta ~via_donor ~attempt ~k =
  let core = im.core in
  if attempt >= C.max_repair_attempts then
    C.trace core ~level:Avdb_sim.Trace.Warn ~category:"storage"
      "%a repair of %s stuck on tx%d; stays quarantined" Address.pp core.C.addr item txid
  else if (not (C.is_down core)) && C.is_quarantined core ~item then begin
    let again via_donor =
      C.after core ~delay:(config im).Config.repair_interval (fun () ->
          watch_pending im ~item ~txid ~coordinator ~donor ~delta ~via_donor
            ~attempt:(attempt + 1) ~k)
    in
    let resolved d =
      if d = Two_phase.Commit then
        C.commit_delta core ~item ~delta ~path:"repair" ~what:"Site.repair apply";
      k ()
    in
    if via_donor then
      (* the coordinator lost its record of the txid; the donor is a
         surviving cohort member and will eventually hold — or
         adjudicate — the outcome *)
      Rpc.call (C.rpc core) ~src:core.C.addr ~dst:donor ~timeout:(config im).Config.rpc_timeout
        (Protocol.Peer_decision_query { txid })
        (C.fenced core (fun response ->
             match response with
             | Ok (Protocol.Peer_decision_status { status = Protocol.Peer_decided d; _ }) ->
                 resolved d
             | Ok (Protocol.Peer_decision_status { status = Protocol.Peer_will_refuse; _ }) ->
                 k ()
             | Ok _ | Error _ -> again true))
    else
      Rpc.call (C.rpc core) ~src:core.C.addr ~dst:coordinator
        ~timeout:(config im).Config.rpc_timeout
        (Protocol.Query_decision { txid })
        (C.fenced core (fun response ->
             match response with
             | Ok (Protocol.Decision_status { status = Protocol.Decided d; _ }) -> resolved d
             | Ok (Protocol.Decision_status { status = Protocol.Unknown_txn; _ }) -> k ()
             | Ok (Protocol.Decision_status { status = Protocol.No_record; _ }) -> again true
             | Ok _ | Error _ -> again false))
  end

(* The donor's in-flight transactions on the item must resolve before
   the installed snapshot is a complete account of it. *)
let repair_install im ~item ~donor (snap : Protocol.snapshot) ~k =
  let watches =
    List.filter (fun (_, _, pitem, _) -> String.equal pitem item) snap.Protocol.pending
  in
  if watches = [] then k ()
  else begin
    let outstanding = ref (List.length watches) in
    List.iter
      (fun (txid, coordinator, _, delta) ->
        watch_pending im ~item ~txid ~coordinator:(Address.of_int coordinator) ~donor ~delta
          ~via_donor:false ~attempt:0 ~k:(fun () ->
            decr outstanding;
            if !outstanding = 0 then k ()))
      watches
  end

let backlog im = Txn_log.in_flight (log im)
