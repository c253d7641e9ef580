(** Key-granularity exclusive locks with FIFO waiting.

    Built for the event-driven simulation: [acquire] never blocks, it
    invokes a continuation when the lock is granted (possibly immediately)
    or when the request times out. Deadlocks resolve through timeouts —
    appropriate here because the paper's protocols (primary-copy Immediate
    Update) lock one item per transaction and should not deadlock; the
    timeout is a safety net that also covers crashed lock holders. *)

type t

type owner = int
(** Opaque owner id — the caller chooses the numbering (e.g. transaction
    ids). *)

val create : engine:Avdb_sim.Engine.t -> timeout:Avdb_sim.Time.t -> t
(** [timeout] bounds how long a queued request waits before its
    continuation receives [Error `Timeout]. *)

val acquire : t -> owner:owner -> key:string -> ((unit, [ `Timeout ]) result -> unit) -> unit
(** Requests the lock; the continuation fires exactly once. The request is
    granted at once when nobody is queued for the key and the key is free
    or already held by [owner] (a re-acquire). Otherwise it queues — even
    the holder's re-acquire does not barge past a live waiter — and queued
    requests are granted in FIFO order. *)

val release : t -> owner:owner -> key:string -> unit
(** Releases one key and grants the next live waiter. Unknown
    (owner, key) pairs are ignored. *)

val release_all : t -> owner:owner -> unit
(** Releases every key held by the owner, drops its queued requests and
    cancels their timers. *)

val holder : t -> key:string -> owner option
(** Diagnostic: the current holder of the key, if any. *)

val waiting : t -> key:string -> int
(** Number of queued (not yet granted) requests for the key. *)
