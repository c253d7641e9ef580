(** The executable reference model: one data item is an integer register
    with non-negative stock, plus an AV ledger that must balance exactly.

    This is the sequential specification the {!Checker} searches against.
    It is deliberately tiny — the paper's data model is "a numeric datum
    per item, updated by deltas, never oversold" — so every judgement the
    oracle makes reduces to these functions. *)

(** {2 Per-item register} *)

type register = { amount : int }

val init : int -> register

val apply : register -> delta:int -> register option
(** [None] when the update must be refused: the stock would go negative.
    A committed update in a valid history always steps with [Some]. *)

val read : register -> int

val replay : initial:int -> int list -> (int, int * int) result
(** Folds {!apply} over a delta sequence. [Error (i, amount)] names the
    first offending index and the amount it would have driven negative. *)

(** {2 AV ledger}

    Volume accounting summed over every site of a cluster. [defined] is
    the initially allocated volume, [minted] what positive Delay Updates
    created, [consumed] what negative Delay Updates destroyed, [live] what
    the AV tables currently hold (available + held). *)

type books = { defined : int; minted : int; consumed : int; live : int }

val deficit : books -> int
(** [defined + minted - consumed - live]: volume no longer anywhere. Must
    never be negative (volume created from nothing); positive volume must
    equal the measured in-flight grant leak. *)

val balance : books -> leaked:int -> (unit, string) result
(** Checks [deficit >= 0] and [deficit = leaked] with [leaked >= 0]. *)

(** {2 Reachable-value sets}

    Delay Updates propagate as per-origin cumulative counters, so a
    replica's value is always [initial + (a prefix of each origin's applied
    delta sequence, summed)]. These helpers build the reachable sets the
    convergence and session checks test membership in.

    A set is a sorted, duplicate-free [int array]. The builders take a
    [cap] (default 200_000) and give [None] when any step of the build
    would pass it — the caller should skip the check rather than guess.
    Every step only grows the set when the choices are non-empty, so
    [None] then means exactly that the final set exceeds [cap]. *)

val mem : int array -> int -> bool
(** Binary search. *)

val add_delta : ?cap:int -> int array -> int -> int array option
(** [s ∪ (s + d)]: extends the subset sums of some deltas by one more. *)

val sum_set : ?cap:int -> int list list -> int array option
(** All sums picking one element per inner list. *)

val subset_sums : ?cap:int -> int list -> int array option
(** All sums of subsets of the given deltas. *)
