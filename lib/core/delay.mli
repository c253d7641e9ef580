(** Delay Update, the paper's AV scheme for regular products.

    A negative delta consumes local AV and circulates more from peers only
    on shortage (the selecting and deciding functions of the configured
    {!Avdb_av.Strategy.t}); a positive delta mints AV locally. Applied
    deltas propagate lazily as versioned cumulative counters, flushed on a
    debounce of [sync_interval] and piggybacked on AV traffic. With
    [prefetch_low] set, an item left below the watermark refills in the
    background. *)

include Update_class.S

val create : Site_core.t -> av_init:(string * int) list -> t
(** Defines AV per [av_init] in autonomous mode (none in centralized
    mode). *)

val notice : t -> src:Avdb_net.Address.t -> Protocol.notice -> unit
(** Applies a peer's lazy-sync notice: its counters, its AV levels and
    its acknowledgement of ours. *)

val submit_batch :
  t -> deltas:(string * int) list -> finish:(Update.outcome -> unit) -> unit
(** Atomic multi-item Delay Update (see {!Site.submit_batch}); every item
    must already be known to be of this class. *)

(** {2 Probes read by the site's public accessors} *)

val av_table : t -> Avdb_av.Av_table.t
val peer_view : t -> Avdb_av.Peer_view.t
val flush_sync : ?force:bool -> t -> unit
val pending_sync_deltas : t -> (string * int) list
val sync_version : t -> item:string -> int
val applied_sync_version : t -> origin:int -> item:string -> int
val last_sync_apply : t -> Avdb_sim.Time.t option
val live_words : t -> int
