(** Cancellable priority queue of timed events.

    A 4-ary min-heap ordered by [(time, sequence)]; the sequence number
    makes dequeue order total and deterministic — two events scheduled for
    the same instant fire in scheduling order. The keys sit in flat [int]
    arrays beside the entries, so sifting compares unboxed integers, and
    every entry knows its own slot. Cancellation is eager and O(log n):
    the entry leaves the heap at once, so the heap only ever holds live
    events and a cancelled payload is not retained. *)

type 'a t

type handle
(** Identity of a scheduled event, usable to cancel it. *)

val create : unit -> 'a t

val add : 'a t -> time:Time.t -> 'a -> handle
(** Schedules a payload at an absolute time. *)

val cancel : handle -> unit
(** Cancels the event, removing it from the heap in O(log n). Harmless if
    the event already fired or was already cancelled. *)

val is_cancelled : handle -> bool

val pop : 'a t -> (Time.t * 'a) option
(** Removes and returns the earliest live event. [None] if the queue
    holds no live events. *)

type 'a entry
(** A dequeued event: its fire time and payload. Entries are immutable
    once dequeued and safe to hold. *)

val entry_time : 'a entry -> Time.t
val entry_payload : 'a entry -> 'a

exception Empty

val pop_exn : 'a t -> 'a entry
(** [pop] without the option/tuple wrapping: returns the already-allocated
    heap entry, so the simulator's dispatch loop pops allocation-free.
    Raises {!Empty} when no live events remain. *)

val peek_time : 'a t -> Time.t option
(** Time of the earliest live event without removing it. *)

val is_empty : 'a t -> bool
(** True iff no live events remain. O(1). *)

val length : 'a t -> int
(** Number of live (non-cancelled) events: the heap size. O(1). *)

val scheduled_total : 'a t -> int
(** Total number of [add]s over the queue's lifetime (diagnostic). *)
