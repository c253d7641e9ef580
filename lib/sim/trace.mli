(** Structured event tracing for simulated components.

    A bounded ring buffer of timestamped events plus live subscribers.
    Components record events under a category ("av", "2pc", "fault", ...);
    tests and debugging tools filter by category/level or subscribe to see
    events as they happen. Recording is cheap and never raises; when the
    buffer is full the oldest events are dropped (and counted). *)

type level = Debug | Info | Warn

val level_name : level -> string

type event = {
  at : Time.t;
  level : level;
  category : string;
  message : string;
}

type t

val create : ?capacity:int -> unit -> t
(** [capacity] bounds the retained events (default 4096, minimum 1). *)

val record : t -> at:Time.t -> ?level:level -> category:string -> string -> unit
(** [level] defaults to [Info]. *)

val recordf :
  t ->
  at:Time.t ->
  ?level:level ->
  category:string ->
  ('a, Format.formatter, unit, unit) format4 ->
  'a
(** Formatted variant. The arguments are captured, not formatted: the
    message is rendered the first time {!events} reads the event, or at
    once when a subscriber is attached (subscribers always receive the
    formatted event synchronously). An argument printed with [%a] or [%t]
    is therefore read at render time and must not be mutated after the
    call; render a mutable value to a string and pass it with [%s]. *)

val events : ?category:string -> ?min_level:level -> t -> event list
(** Retained events, oldest first, optionally filtered. *)

val length : t -> int
(** Retained events. *)

val dropped : t -> int
(** Events evicted by the capacity bound over the trace's lifetime. *)

type subscription
(** Token identifying a registered subscriber. *)

val subscribe : t -> (event -> unit) -> subscription
(** Calls back on every future [record], in subscription order, until
    {!unsubscribe}d.

    Single-writer contract: a [Trace.t] — its ring, its subscriber list
    and the callbacks themselves — belongs to one domain. The parallel
    engine gives every shard its own trace (subscribers see only their
    shard's events, in that shard's deterministic order) and merges with
    {!merged_events} after the run joins. Subscribing to or recording
    into another domain's trace is a data race. *)

val unsubscribe : t -> subscription -> unit
(** Removes a subscriber. Unknown (or already removed) tokens are a
    no-op. *)

val clear : t -> unit
(** Drops retained events (subscribers and the dropped counter stay). *)

val merged_events : ?category:string -> ?min_level:level -> t list -> event list
(** Retained events of several single-domain traces merged by timestamp
    (stable: trace order preserved within an instant), optionally
    filtered — the deterministic view of a multi-shard run. *)

val pp_event : Format.formatter -> event -> unit
