(* An entry records its own heap slot ([pos]) so [cancel] can remove it in
   place. [pos] is >= 0 while queued, [popped] once dequeued, [cancelled]
   once cancelled (before or after firing). The sort key lives beside the
   entries in the queue's flat [times]/[seqs] arrays, so sifting compares
   unboxed ints without touching the entry blocks. *)
type 'a entry = { time : Time.t; payload : 'a; mutable pos : int; queue : 'a t }

and 'a t = {
  mutable entries : 'a entry array;
  mutable times : int array;
  mutable seqs : int array;
  (* Slots at index >= size are logically absent and hold [vacant], so a
     removed entry (and its payload) is never retained by the heap. *)
  mutable size : int;
  mutable next_seq : int;
}

(* Unboxed existential: a handle is the entry itself, minus its payload
   type, so [add] allocates nothing beyond the entry. *)
type handle = H : 'a entry -> handle [@@unboxed]

let popped = -1
let cancelled = -2

(* Filler for logically absent slots. Never read: every access is guarded
   by [size]. *)
let vacant () : 'a entry = Obj.magic 0

let create () = { entries = [||]; times = [||]; seqs = [||]; size = 0; next_seq = 0 }

let grow t =
  let cap = Array.length t.entries in
  if t.size = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let entries = Array.make ncap (vacant ()) in
    let times = Array.make ncap 0 and seqs = Array.make ncap 0 in
    Array.blit t.entries 0 entries 0 t.size;
    Array.blit t.times 0 times 0 t.size;
    Array.blit t.seqs 0 seqs 0 t.size;
    t.entries <- entries;
    t.times <- times;
    t.seqs <- seqs
  end

(* Does key [(time, seq)] sort before the key in slot [j]? *)
let[@inline] before t ~time ~seq j =
  let tj = t.times.(j) in
  time < tj || (time = tj && seq < t.seqs.(j))

let[@inline] put t i e ~time ~seq =
  t.entries.(i) <- e;
  t.times.(i) <- time;
  t.seqs.(i) <- seq;
  e.pos <- i

(* Hole-based sifts on a 4-ary heap: children of slot [i] are
   [4i+1 .. 4i+4]. The moving entry is written once, at its final slot. *)
let sift_up t i e ~time ~seq =
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) lsr 2 in
    if before t ~time ~seq parent then begin
      put t !i t.entries.(parent) ~time:t.times.(parent) ~seq:t.seqs.(parent);
      i := parent
    end
    else continue := false
  done;
  put t !i e ~time ~seq

let sift_down t i e ~time ~seq =
  let i = ref i in
  let continue = ref true in
  while !continue do
    let first = (4 * !i) + 1 in
    if first >= t.size then continue := false
    else begin
      let last = Stdlib.min (first + 3) (t.size - 1) in
      let best = ref first in
      for c = first + 1 to last do
        if before t ~time:t.times.(c) ~seq:t.seqs.(c) !best then best := c
      done;
      let b = !best in
      if not (before t ~time ~seq b) then begin
        put t !i t.entries.(b) ~time:t.times.(b) ~seq:t.seqs.(b);
        i := b
      end
      else continue := false
    end
  done;
  put t !i e ~time ~seq

let add t ~time payload =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  grow t;
  let e = { time; payload; pos = t.size; queue = t } in
  t.size <- t.size + 1;
  sift_up t (t.size - 1) e ~time:(Time.to_us time) ~seq;
  H e

(* Removes the entry at slot [i]: the last entry fills the hole and sifts
   whichever way its key requires. *)
let remove_at t i =
  let last = t.size - 1 in
  t.size <- last;
  if i < last then begin
    let e = t.entries.(last) and time = t.times.(last) and seq = t.seqs.(last) in
    if i > 0 && before t ~time ~seq ((i - 1) lsr 2) then sift_up t i e ~time ~seq
    else sift_down t i e ~time ~seq
  end;
  t.entries.(last) <- vacant ()

let cancel (H e) =
  if e.pos >= 0 then remove_at e.queue e.pos;
  e.pos <- cancelled

let is_cancelled (H e) = e.pos = cancelled

exception Empty

let entry_time e = e.time
let entry_payload e = e.payload

(* The dispatch-loop pop: hands back the heap entry itself instead of
   re-wrapping it in an option and a tuple, so the per-event cost of the
   simulator's main loop is zero allocations. *)
let pop_exn t =
  if t.size = 0 then raise Empty
  else begin
    let root = t.entries.(0) in
    remove_at t 0;
    root.pos <- popped;
    root
  end

let pop t =
  match pop_exn t with
  | exception Empty -> None
  | e -> Some (e.time, e.payload)

let peek_time t = if t.size = 0 then None else Some t.entries.(0).time
let is_empty t = t.size = 0
let length t = t.size
let scheduled_total t = t.next_seq
