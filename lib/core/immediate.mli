(** Immediate Update: primary-copy two-phase commit for non-regular
    products (§3.3), with this site coordinating its own updates and
    participating in its peers'. User-visible completion is the base
    site's acknowledgement.

    Crash consistency rests on the durable protocol log: a recovering
    site re-installs prepared transactions and resumes the cooperative
    termination protocol (coordinator, then base, then fellow cohort
    members), presumes abort for its own undecided coordinations while
    the log is intact, re-broadcasts logged decisions whose ack round
    never closed, and adjudicates with the full cohort once the log has
    lost records. *)

include Update_class.S

val create : Site_core.t -> t
