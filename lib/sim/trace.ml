type level = Debug | Info | Warn

let level_name = function Debug -> "debug" | Info -> "info" | Warn -> "warn"
let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2

type event = { at : Time.t; level : level; category : string; message : string }

(* A retained event. [recordf] keeps its arguments as a [Format.kdprintf]
   closure in [render] and formats them into [text] the first time the
   event is read, so an event nobody reads costs no formatting. *)
type slot = {
  s_at : Time.t;
  s_level : level;
  s_category : string;
  mutable text : string;
  mutable render : (Format.formatter -> unit) option;
}

type t = {
  capacity : int;
  buffer : slot array;
  mutable next : int;  (* slot for the next write *)
  mutable count : int;  (* retained events, <= capacity *)
  mutable dropped : int;
  mutable next_subscription : int;
  mutable subscribers : (int * (event -> unit)) list;
}

type subscription = int

let empty = { s_at = Time.zero; s_level = Debug; s_category = ""; text = ""; render = None }

let create ?(capacity = 4096) () =
  let capacity = Stdlib.max 1 capacity in
  {
    capacity;
    buffer = Array.make capacity empty;
    next = 0;
    count = 0;
    dropped = 0;
    next_subscription = 0;
    subscribers = [];
  }

let push t slot =
  if t.count = t.capacity then t.dropped <- t.dropped + 1 else t.count <- t.count + 1;
  t.buffer.(t.next) <- slot;
  t.next <- (t.next + 1) mod t.capacity

let record t ~at ?(level = Info) ~category message =
  push t { s_at = at; s_level = level; s_category = category; text = message; render = None };
  match t.subscribers with
  | [] -> ()
  | subscribers ->
      let event = { at; level; category; message } in
      List.iter (fun (_, f) -> f event) subscribers

let recordf t ~at ?(level = Info) ~category fmt =
  Format.kdprintf
    (fun render ->
      match t.subscribers with
      | [] ->
          push t
            { s_at = at; s_level = level; s_category = category; text = ""; render = Some render }
      | _ -> record t ~at ~level ~category (Format.asprintf "%t" render))
    fmt

let to_event slot =
  (match slot.render with
  | Some render ->
      slot.text <- Format.asprintf "%t" render;
      slot.render <- None
  | None -> ());
  { at = slot.s_at; level = slot.s_level; category = slot.s_category; message = slot.text }

let events ?category ?min_level t =
  let keep s =
    (match category with Some c -> String.equal s.s_category c | None -> true)
    && match min_level with Some l -> level_rank s.s_level >= level_rank l | None -> true
  in
  let out = ref [] in
  (* oldest event sits at [next] when full, at 0 otherwise *)
  let start = if t.count = t.capacity then t.next else 0 in
  for i = 0 to t.count - 1 do
    let s = t.buffer.((start + i) mod t.capacity) in
    if keep s then out := to_event s :: !out
  done;
  List.rev !out

let length t = t.count
let dropped t = t.dropped
let subscribe t f =
  let id = t.next_subscription in
  t.next_subscription <- id + 1;
  t.subscribers <- t.subscribers @ [ (id, f) ];
  id

let unsubscribe t subscription =
  t.subscribers <- List.filter (fun (id, _) -> id <> subscription) t.subscribers

let clear t =
  Array.fill t.buffer 0 t.capacity empty;
  t.next <- 0;
  t.count <- 0

let merged_events ?category ?min_level traces =
  List.stable_sort
    (fun a b -> Time.compare a.at b.at)
    (List.concat_map (fun t -> events ?category ?min_level t) traces)

let pp_event ppf e =
  Format.fprintf ppf "[%a] %s %s: %s" Time.pp e.at (level_name e.level) e.category e.message
