type shard = { engine : Engine.t; drain : unit -> unit }

type stats = { rounds : int; end_time : Time.t }

(* Phase barrier on Mutex/Condition rather than a spin loop: rounds are
   few (idle windows are skipped on the grid), and blocking keeps
   oversubscribed hosts — more domains than cores — from burning a whole
   scheduling quantum per barrier. The last arriver runs [on_last] while
   the rest are parked, which is where the round decision (and the
   caller's serial hook) executes with exclusive access to all shards. *)
module Barrier = struct
  type t = {
    n : int;
    mutable arrived : int;
    mutable phase : int;
    mutex : Mutex.t;
    cond : Condition.t;
  }

  let create n = { n; arrived = 0; phase = 0; mutex = Mutex.create (); cond = Condition.create () }

  let await t ~on_last =
    Mutex.lock t.mutex;
    let phase = t.phase in
    t.arrived <- t.arrived + 1;
    if t.arrived = t.n then begin
      on_last ();
      t.arrived <- 0;
      t.phase <- phase + 1;
      Condition.broadcast t.cond;
      Mutex.unlock t.mutex
    end
    else begin
      while t.phase = phase do
        Condition.wait t.cond t.mutex
      done;
      Mutex.unlock t.mutex
    end
end

type decision = Run_until of Time.t | Stop

let run ~window ?until ?(on_round = fun ~at:_ -> ()) shards =
  let n = Array.length shards in
  if n = 0 then invalid_arg "Parallel.run: no shards";
  let wus = Time.to_us window in
  if wus < 1 then invalid_arg "Parallel.run: window must be >= 1us";
  let barrier = Barrier.create n in
  let next_event = Array.make n None in
  let errors = Array.make n None in
  let decision = ref Stop in
  (* Common virtual clock: every engine's clock after round k equals the
     round's [until] (Engine.run aligns on drain/horizon), so one scalar
     describes them all between barriers. *)
  let floor = ref Time.zero in
  let rounds = ref 0 in
  let have_error () = Array.exists Option.is_some errors in
  let decide () =
    if have_error () then decision := Stop
    else begin
      (try on_round ~at:!floor
       with e -> errors.(0) <- Some (e, Printexc.get_raw_backtrace ()));
      if have_error () then decision := Stop
      else begin
        let next =
          Array.fold_left
            (fun acc t ->
              match (acc, t) with
              | None, t -> t
              | acc, None -> acc
              | Some a, Some b -> Some (Time.min a b))
            None next_event
        in
        decision :=
          (match (next, until) with
          | None, Some h when Time.(!floor < h) -> Run_until h
          | None, _ -> Stop
          | Some nx, Some h when Time.(nx > h) ->
              if Time.(!floor < h) then Run_until h else Stop
          | Some nx, horizon ->
              let start = Time.of_us (Time.to_us nx / wus * wus) in
              let u = Time.add start (Time.of_us (wus - 1)) in
              Run_until (match horizon with Some h -> Time.min u h | None -> u));
        match !decision with
        | Run_until u ->
            incr rounds;
            floor := u
        | Stop -> ()
      end
    end
  in
  let worker rank =
    let shard = shards.(rank) in
    let guard f =
      try f ()
      with e ->
        if errors.(rank) = None then errors.(rank) <- Some (e, Printexc.get_raw_backtrace ())
    in
    let write_next () = next_event.(rank) <- Engine.next_time shard.engine in
    (* Mail pushed while the shards were quiescent (between runs, or from
       the calling domain) must be on the queue before the first window
       is chosen, or it would be drained after that window and land in
       the receiver's past. *)
    guard shard.drain;
    guard write_next;
    let continue = ref true in
    while !continue do
      Barrier.await barrier ~on_last:decide;
      match !decision with
      | Stop -> continue := false
      | Run_until u ->
          guard (fun () -> ignore (Engine.run ~until:u shard.engine));
          (* All shards have finished pushing into each other's inboxes
             before anyone drains. *)
          Barrier.await barrier ~on_last:(fun () -> ());
          guard (fun () -> shard.drain ());
          guard write_next
    done
  in
  let domains = Array.init (n - 1) (fun i -> Domain.spawn (fun () -> worker (i + 1))) in
  worker 0;
  Array.iter Domain.join domains;
  Array.iter
    (function
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ())
    errors;
  { rounds = !rounds; end_time = !floor }
