open Avdb_sim

type owner = int

type waiter = {
  w_owner : owner;
  continuation : (unit, [ `Timeout ]) result -> unit;
  timeout_handle : Engine.handle;
  mutable done_ : bool;  (* granted or timed out; a dead waiter is skipped *)
}

type lock_state = { mutable holder : owner option; mutable queue : waiter list }
(* queue is oldest-first. *)

type t = {
  engine : Engine.t;
  timeout : Time.t;
  locks : (string, lock_state) Hashtbl.t;
  by_owner : (owner, (string, unit) Hashtbl.t) Hashtbl.t;
}

let create ~engine ~timeout =
  { engine; timeout; locks = Hashtbl.create 64; by_owner = Hashtbl.create 16 }

let state t key =
  match Hashtbl.find_opt t.locks key with
  | Some s -> s
  | None ->
      let s = { holder = None; queue = [] } in
      Hashtbl.add t.locks key s;
      s

let note_held t owner key =
  let keys =
    match Hashtbl.find_opt t.by_owner owner with
    | Some k -> k
    | None ->
        let k = Hashtbl.create 4 in
        Hashtbl.add t.by_owner owner k;
        k
  in
  Hashtbl.replace keys key ()

let note_released t owner key =
  match Hashtbl.find_opt t.by_owner owner with
  | None -> ()
  | Some keys ->
      Hashtbl.remove keys key;
      if Hashtbl.length keys = 0 then Hashtbl.remove t.by_owner owner

let grantable state ~owner =
  match state.holder with None -> true | Some o -> o = owner

let grant t key state owner =
  state.holder <- Some owner;
  note_held t owner key

(* Grant queued waiters in FIFO order, skipping dead ones; stop at the
   first live waiter that cannot be granted. *)
let rec pump t key state =
  match state.queue with
  | [] -> ()
  | w :: rest when w.done_ ->
      state.queue <- rest;
      pump t key state
  | w :: rest ->
      if grantable state ~owner:w.w_owner then begin
        state.queue <- rest;
        w.done_ <- true;
        Engine.cancel t.engine w.timeout_handle;
        grant t key state w.w_owner;
        w.continuation (Ok ());
        pump t key state
      end

let acquire t ~owner ~key continuation =
  let s = state t key in
  let no_live_waiters = List.for_all (fun w -> w.done_) s.queue in
  (* Grant immediately only when nobody is queued ahead (no barging). *)
  if no_live_waiters && grantable s ~owner then begin
    grant t key s owner;
    continuation (Ok ())
  end
  else begin
    let rec waiter =
      lazy
        {
          w_owner = owner;
          continuation;
          timeout_handle =
            Engine.schedule t.engine ~delay:t.timeout (fun () ->
                let w = Lazy.force waiter in
                if not w.done_ then begin
                  w.done_ <- true;
                  continuation (Error `Timeout)
                end);
          done_ = false;
        }
    in
    s.queue <- s.queue @ [ Lazy.force waiter ]
  end

let release t ~owner ~key =
  match Hashtbl.find_opt t.locks key with
  | None -> ()
  | Some s -> (
      match s.holder with
      | Some o when o = owner ->
          s.holder <- None;
          note_released t owner key;
          pump t key s;
          if s.holder = None && s.queue = [] then Hashtbl.remove t.locks key
      | _ -> ())

let release_all t ~owner =
  (* Drop queued requests first so releasing keys cannot re-grant them. *)
  Hashtbl.iter
    (fun _key s ->
      List.iter
        (fun w ->
          if w.w_owner = owner && not w.done_ then begin
            w.done_ <- true;
            Engine.cancel t.engine w.timeout_handle
          end)
        s.queue)
    t.locks;
  match Hashtbl.find_opt t.by_owner owner with
  | None -> ()
  | Some keys ->
      let key_list = Hashtbl.fold (fun k () acc -> k :: acc) keys [] in
      List.iter (fun key -> release t ~owner ~key) key_list

let holder t ~key =
  match Hashtbl.find_opt t.locks key with None -> None | Some s -> s.holder

let waiting t ~key =
  match Hashtbl.find_opt t.locks key with
  | None -> 0
  | Some s -> List.length (List.filter (fun w -> not w.done_) s.queue)
