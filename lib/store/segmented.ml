(* Segmented, checksummed on-disk image of an append-only log.

   The log's record lines are framed (Frame), grouped into fixed-size
   segments, and each filled segment is sealed with a header carrying a
   CRC-32 over its whole body; the tail segment stays active:

     SEG|<idx>|<nframes>|<crc8hex>      sealed segment header
     ACT|<idx>                          active (tail) segment header
     <frame line> ...                   Frame.encode'd record lines

   A manifest — trusted metadata surviving the crash, like the sync
   counters and the protocol-log index — records how many segments and
   frames had been synced, so recovery can tell a torn tail (damage
   beyond the synced point: benign, recover the prefix) from real data
   loss or corruption (damage inside it). The manifest is rebuilt from
   the live log at every sync point. *)

type manifest = { segments : int; frames : int }

type damage = Torn_tail | Corrupt of Corruption.t | Missing_segment of int

let pp_damage ppf = function
  | Torn_tail -> Format.pp_print_string ppf "torn-tail"
  | Corrupt c -> Format.fprintf ppf "corrupt(%a)" Corruption.pp c
  | Missing_segment i -> Format.fprintf ppf "missing-segment(%d)" i

type report = {
  payloads : string list;  (** longest valid frame prefix, in log order *)
  damage : damage list;
  lost_frames : int;  (** synced frames that did not survive *)
}

let data_loss r = r.lost_frames > 0

let checksum_failures r =
  List.length (List.filter (function Corrupt _ -> true | _ -> false) r.damage)

(* --- building an image --- *)

let build ~segment_frames payloads =
  if segment_frames < 1 then invalid_arg "Segmented.build: segment_frames < 1";
  let frames = List.mapi (fun seq p -> Frame.encode ~seq p) payloads in
  let n = List.length frames in
  let nsegs = max 1 ((n + segment_frames - 1) / segment_frames) in
  let rec take k l =
    if k = 0 then ([], l)
    else
      match l with
      | [] -> ([], [])
      | x :: tl ->
          let h, r = take (k - 1) tl in
          (x :: h, r)
  in
  let rec chunks idx frames =
    if idx = nsegs - 1 then
      (* The tail segment stays active: unsealed, so appends keep flowing. *)
      [ String.concat "\n" (Printf.sprintf "ACT|%d" idx :: frames) ]
    else
      let seg, rest = take segment_frames frames in
      let body = String.concat "\n" seg in
      let header =
        Printf.sprintf "SEG|%d|%d|%08x" idx (List.length seg) (Frame.crc32 body)
      in
      String.concat "\n" (header :: seg) :: chunks (idx + 1) rest
  in
  (chunks 0 frames, { segments = nsegs; frames = n })

(* --- recovering an image --- *)

(* Recovery collects the longest valid frame prefix and stops at the
   first damage. Classification is positional: a failure at a global
   frame index at or beyond [manifest.frames] is a torn tail (the damage
   sits past the last synced byte — benign); inside it, corruption. A
   header-only failure whose frames still all certify loses nothing.
   Never raises. *)

type cursor = {
  mutable seq : int;  (* next expected global frame index *)
  mutable acc : string list;  (* payloads, newest-first *)
  mutable dmg : damage list;  (* newest-first *)
  mutable stopped : bool;
}

type header_verdict = Header_ok | Header_damaged of string | Segment_gap

let parse_header ~segment ~body header =
  match String.split_on_char '|' header with
  | [ "SEG"; idx; _nframes; crc ] -> (
      match (int_of_string_opt idx, int_of_string_opt ("0x" ^ crc)) with
      | Some idx, _ when idx > segment -> Segment_gap
      | Some idx, Some crc when idx = segment ->
          if Frame.crc32 body = crc then Header_ok
          else Header_damaged "sealed-segment checksum mismatch"
      | _ -> Header_damaged "damaged segment header")
  | [ "ACT"; idx ] -> (
      match int_of_string_opt idx with
      | Some i when i = segment -> Header_ok
      | Some i when i > segment -> Segment_gap
      | _ -> Header_damaged "damaged segment header")
  | _ ->
      (* Unrecognisable — maybe bit-flipped, maybe the successor of a lost
         segment. Let the frames decide: their stamped sequence numbers
         reveal any gap. *)
      Header_damaged "damaged segment header"

let recover manifest segments =
  let cur = { seq = 0; acc = []; dmg = []; stopped = false } in
  let fail d =
    cur.dmg <- d :: cur.dmg;
    cur.stopped <- true
  in
  let scan_frames ~segment ~offset0 lines =
    let offset = ref offset0 in
    List.iter
      (fun line ->
        if not cur.stopped then begin
          (match Frame.decode ~expect_seq:cur.seq line with
          | Ok payload ->
              cur.acc <- payload :: cur.acc;
              cur.seq <- cur.seq + 1
          | Error e ->
              if cur.seq >= manifest.frames then fail Torn_tail
              else
                fail
                  (Corrupt
                     (Corruption.v ~segment ~offset:!offset (Frame.error_to_string e))));
          offset := !offset + String.length line + 1
        end)
      lines
  in
  let scan_segment segment seg_text =
    match if seg_text = "" then [] else String.split_on_char '\n' seg_text with
    | [] -> fail (Corrupt (Corruption.v ~segment ~offset:0 "empty segment"))
    | header :: frames -> (
        let body = String.concat "\n" frames in
        let offset0 = String.length header + 1 in
        match parse_header ~segment ~body header with
        | Segment_gap -> fail (Missing_segment segment)
        | Header_ok -> scan_frames ~segment ~offset0 frames
        | Header_damaged reason ->
            (* Salvage frame by frame; note the header damage only when the
               frames themselves all certify (losing nothing). *)
            let before = cur.stopped in
            scan_frames ~segment ~offset0 frames;
            if cur.stopped = before then
              cur.dmg <- Corrupt (Corruption.v ~segment ~offset:0 reason) :: cur.dmg)
  in
  List.iteri
    (fun segment seg_text ->
      if (not cur.stopped) && segment < manifest.segments then scan_segment segment seg_text)
    segments;
  if
    (not cur.stopped)
    && cur.seq < manifest.frames
    && List.length segments < manifest.segments
  then fail (Missing_segment (List.length segments));
  let payloads = List.rev cur.acc in
  {
    payloads;
    damage = List.rev cur.dmg;
    lost_frames = max 0 (manifest.frames - List.length payloads);
  }
