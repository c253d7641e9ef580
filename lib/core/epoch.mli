(** Epoch-quorum commit: strong, totally ordered updates without a
    per-transaction lock round-trip. A writer logs its intent durably and
    forwards it to the epoch's sequencer, which rotates over the item's
    subscribers; the sequencer seals the buffered intents into one epoch
    and decides it with a single-decree quorum round, a takeover running
    the collect phase first. Subscribers apply sealed epochs strictly in
    order, pulling any gap, and a writer's continuation fires once the
    seal holding its intent lands locally. *)

include Update_class.S

val create : Site_core.t -> t

(** {2 Probes read by the site's public accessors} *)

val flush_epochs : t -> unit
val epoch_applied : t -> item:string -> int option
