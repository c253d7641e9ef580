(** The lifecycle every update class implements.

    The paper's checking function sorts each update into a class, and the
    rest of the design follows from that choice. A site fixes each
    subscribed item's class once, at creation, by one exhaustive match on
    {!Product.kind}, and from then on reaches the class only through this
    signature. Every hook is mandatory — there are no defaults — so a new
    class does not compile until it says what it does on each of them. *)

module type S = sig
  type t
  (** The class's per-site state. It holds the site's shared core
      ({!Site_core.t}) for storage, routing, tracing and the fence. *)

  val name : string
  (** Short label: ["delay"], ["immediate"], ["epoch"]. *)

  val adopt : t -> item:string -> unit
  (** The site assigned [item], one of its interest items, to this class
      at creation. *)

  val submit : t -> item:string -> delta:int -> finish:(Update.outcome -> unit) -> unit
  (** Runs one user update on an item of this class. The site has already
      checked that it is up, that it holds the item and that the item is
      not quarantined; [finish] fires exactly once. *)

  val serve :
    t ->
    src:Avdb_net.Address.t ->
    span:Avdb_obs.Span.id option ->
    Protocol.request ->
    reply:(Protocol.response -> unit) ->
    unit
  (** Answers the requests of this class's own protocol; the site's
      dispatch routes nothing else here. *)

  val crash : t -> unit
  (** Drops the state that lives only in the dead process's memory. Runs
      after the site is marked down, so nothing reads it until
      {!recover}. *)

  val recover : t -> unit
  (** Re-derives the class's state from durable storage and restarts its
      timers. Runs after the site's storage is recovered and the site is
      back on the network, in the order Immediate, Epoch, Delay. *)

  val rebuild_row : t -> trust_txn_log:bool -> item:string -> initial:int -> int
  (** The committed amount of [item] after its WAL row was lost, from
      metadata kept on other media. [trust_txn_log] is false once the
      protocol log itself has lost records. *)

  val tainted_by_log_loss : bool
  (** Whether this class's rows become untrusted (quarantined, then
      repaired from a donor) when the protocol log loses records. *)

  val join_snapshot : t -> want:(string -> bool) -> Protocol.snapshot -> Protocol.snapshot
  (** Adds this class's part to a snapshot served to a joiner or a
      repairing site, restricted to the items [want] accepts. *)

  val join_install : t -> Protocol.snapshot -> unit
  (** Installs this class's part of a joiner's fetched snapshot, after
      the site has written its rows. *)

  val repair_install :
    t -> item:string -> donor:Avdb_net.Address.t -> Protocol.snapshot -> k:(unit -> unit) -> unit
  (** Finishes the repair of one quarantined item of this class after the
      site installed the donor's row; [k] lifts the quarantine. *)

  val backlog : t -> int
  (** Work this class still owes the cluster: Delay counters not yet
      flushed, 2PC transactions logged without an outcome, own epoch
      intents no seal holds yet. Zero once a quiescent cluster has
      flushed. *)
end
