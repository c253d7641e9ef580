(** Segmented, checksummed on-disk log images.

    Serialises a log's record lines into CRC-framed segments — sealed
    segments carry a whole-body checksum header, the tail segment stays
    active — and recovers the longest valid frame prefix from a possibly
    damaged image, classifying what it finds instead of raising.

    The {!manifest} is trusted metadata that survives the crash (like
    the protocol-log index): it pins how many segments and frames had
    been synced, which is what lets recovery tell a benign torn tail
    (damage beyond the synced point) from data loss or corruption inside
    it. It is rebuilt from the live log at every sync point. *)

type manifest = { segments : int; frames : int }

type damage =
  | Torn_tail  (** damage past the last synced frame: prefix recovery, no loss *)
  | Corrupt of Corruption.t  (** checksum / framing failure inside the synced prefix *)
  | Missing_segment of int  (** a whole synced segment is gone *)

val pp_damage : Format.formatter -> damage -> unit

type report = {
  payloads : string list;  (** longest valid frame prefix, in log order *)
  damage : damage list;
  lost_frames : int;  (** synced frames that did not survive *)
}

val data_loss : report -> bool
val checksum_failures : report -> int

val build : segment_frames:int -> string list -> string list * manifest
(** [build ~segment_frames payloads] frames the payload lines and packs
    them into segment texts (one string per segment). Raises
    [Invalid_argument] if [segment_frames < 1]. *)

val recover : manifest -> string list -> report
(** Never raises: any mutation of a built image yields a prefix of the
    original payloads plus a damage classification. *)
