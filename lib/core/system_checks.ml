(* Whole-system introspection over a set of sites, behind the cluster's
   probes. Everything here reads cross-site state, so with several shards
   these must only be called while the shards are quiescent: between
   runs, or from a barrier hook. *)

open Avdb_net
open Avdb_av

let replica_amounts ~topology ~site ~item =
  List.map
    (fun i ->
      match Site.amount_of (site i) ~item with
      | Some n -> n
      | None -> invalid_arg ("replica_amounts: unknown item " ^ item))
    (Topology.subscribers topology ~item)

let av_sum ~topology ~site ~item =
  List.fold_left
    (fun acc i -> acc + Av_table.total (Site.av_table (site i)) ~item)
    0
    (Topology.subscribers topology ~item)

(* AV conservation: volume is only created by [define] and [mint] and only
   destroyed by [consume]; grants merely move it between sites. Holds even
   while replicas still disagree, so it is checkable right after a fault
   window closes, before convergence. Only the item's subscribers can hold
   its AV, so the fold is O(interest), not O(N). *)
let av_conservation ~topology ~site ~item =
  let sum f =
    List.fold_left
      (fun acc i -> acc + f (Site.av_table (site i)) ~item)
      0
      (Topology.subscribers topology ~item)
  in
  let live = sum Av_table.total in
  let consumed = sum Av_table.consumed in
  let minted = sum Av_table.minted in
  let defined = sum Av_table.defined_volume in
  if live + consumed - minted = defined then Ok ()
  else
    Error
      (Printf.sprintf
         "%s: AV not conserved: live %d + consumed %d - minted %d <> defined %d" item live
         consumed minted defined)

(* Network stats conservation over one or several (per-shard) stats
   instances: every delivery or loss traces back to a send or an injected
   duplicate; messages still in flight make the left side smaller, never
   larger. Cross-shard sends count on the sender's stats and deliver on
   the receiver's, so the invariant only holds over the summed totals. *)
let net_conservation stats_list =
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 stats_list in
  let sent = sum Stats.total_sent
  and received = sum Stats.total_received
  and dropped = sum Stats.total_dropped
  and duplicated = sum Stats.total_duplicated in
  if received + dropped > sent + duplicated then
    Error
      (Printf.sprintf
         "net stats not conserved: received %d + dropped %d > sent %d + duplicated %d"
         received dropped sent duplicated)
  else Ok ()

(* 2PC decision agreement across the whole system: every site's durable
   protocol log must assign each txid at most one outcome. Unlike replica
   agreement this is checkable at any instant — outcomes are logged before
   they are acted on, so a Commit/Abort split for one txid is a protocol
   bug, never a transient. *)
let decision_agreement ~iter_sites =
  let outcomes : (int, Avdb_txn.Two_phase.decision * Address.t) Hashtbl.t =
    Hashtbl.create 64
  in
  let problems = ref [] in
  iter_sites (fun s ->
      List.iter
        (fun (e : Avdb_txn.Txn_log.entry) ->
          match e.Avdb_txn.Txn_log.outcome with
          | None -> ()
          | Some d -> (
              let txid = e.Avdb_txn.Txn_log.txid in
              match Hashtbl.find_opt outcomes txid with
              | None -> Hashtbl.add outcomes txid (d, Site.addr s)
              | Some (d', witness) ->
                  if d <> d' then
                    problems :=
                      Format.asprintf "tx%d decided %a at %a but %a at %a" txid
                        Avdb_txn.Two_phase.pp_decision d' Address.pp witness
                        Avdb_txn.Two_phase.pp_decision d Address.pp (Site.addr s)
                      :: !problems))
        (Avdb_txn.Txn_log.entries (Site.txn_log s)));
  match List.rev !problems with [] -> Ok () | ps -> Error (String.concat "; " ps)

let in_doubt_total ~iter_sites =
  let acc = ref 0 in
  iter_sites (fun s -> acc := !acc + Avdb_txn.Txn_log.in_flight (Site.txn_log s));
  !acc

(* Sealed-epoch agreement: a seal is a single-decree quorum decision, so
   any two sites whose durable logs both hold a seal for (item, epoch)
   must hold the exact same intent sequence. Like 2PC decision agreement
   this is checkable at any instant — a split seal is a protocol bug,
   never a transient. *)
let sealed_epoch_agreement ~iter_sites =
  let pp_seal ppf seal =
    Format.fprintf ppf "[%s]"
      (String.concat ","
         (List.map
            (fun (i : Avdb_txn.Txn_log.intent) ->
              Printf.sprintf "%d:%+d" i.Avdb_txn.Txn_log.i_txid
                i.Avdb_txn.Txn_log.i_delta)
            seal))
  in
  let seals : (string * int, Avdb_txn.Txn_log.intent list * Address.t) Hashtbl.t =
    Hashtbl.create 64
  in
  let problems = ref [] in
  iter_sites (fun s ->
      List.iter
        (fun (item, epoch, seal) ->
          match Hashtbl.find_opt seals (item, epoch) with
          | None -> Hashtbl.add seals (item, epoch) (seal, Site.addr s)
          | Some (seal', witness) ->
              if seal <> seal' then
                problems :=
                  Format.asprintf "%s e%d sealed %a at %a but %a at %a" item epoch
                    pp_seal seal' Address.pp witness pp_seal seal Address.pp
                    (Site.addr s)
                  :: !problems)
        (Avdb_txn.Txn_log.epoch_seals (Site.txn_log s)));
  match List.rev !problems with [] -> Ok () | ps -> Error (String.concat "; " ps)

let unsealed_intent_total ~iter_sites =
  let acc = ref 0 in
  iter_sites (fun s -> acc := !acc + Site.epoch_unsealed s);
  !acc

let check_invariants ~config ~topology ~site =
  let problems = ref [] in
  let add fmt = Format.kasprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun product ->
      let item = product.Product.name in
      let amounts = replica_amounts ~topology ~site ~item in
      (* In centralized mode only the base copy is authoritative; retailer
         replicas are never written, so agreement is not expected. Under
         partial replication only subscribers hold a replica at all, so
         agreement is checked — and priced — over the interest set. *)
      (match amounts with
      | first :: rest
        when config.Config.mode = Config.Autonomous
             && List.exists (fun a -> a <> first) rest ->
          add "%s: replicas diverge: %s" item
            (String.concat "," (List.map string_of_int amounts))
      | _ -> ());
      if Product.is_regular product && config.Config.mode = Config.Autonomous then begin
        let sum = av_sum ~topology ~site ~item in
        let base = site (Topology.base_index topology ~item) in
        let base_amount =
          match Site.amount_of base ~item with Some n -> n | None -> 0
        in
        if sum <> base_amount then
          add "%s: AV sum %d <> replicated amount %d" item sum base_amount;
        List.iter
          (fun i ->
            let s = site i in
            let av = Site.av_table s in
            if Av_table.available av ~item < 0 || Av_table.held av ~item < 0 then
              add "%s: negative AV at %a" item Address.pp (Site.addr s))
          (Topology.subscribers topology ~item)
      end)
    config.Config.products;
  (* Epoch-class items additionally owe seal agreement and a drained
     intent backlog at quiescence. *)
  if
    List.exists Product.is_epoch config.Config.products
    && config.Config.mode = Config.Autonomous
  then begin
    let iter_sites f =
      for i = 0 to config.Config.n_sites - 1 do
        f (site i)
      done
    in
    (match sealed_epoch_agreement ~iter_sites with
    | Ok () -> ()
    | Error e -> add "%s" e);
    let unsealed = unsealed_intent_total ~iter_sites in
    if unsealed > 0 then add "%d epoch intents still unsealed" unsealed
  end;
  match List.rev !problems with
  | [] -> Ok ()
  | ps -> Error (String.concat "; " ps)
