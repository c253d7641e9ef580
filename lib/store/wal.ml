type record =
  | Create_table of { table : string; columns : Schema.column list }
  | Begin of int
  | Insert of { txid : int; table : string; key : string; row : Value.t array }
  | Update of { txid : int; table : string; key : string; col : string; before : Value.t; after : Value.t }
  | Delete of { txid : int; table : string; key : string; row : Value.t array }
  | Commit of int
  | Abort of int
  | Apply of { txid : int; table : string; key : string; col : string; before : Value.t; after : Value.t }

type t = {
  mutable records : record list;
  mutable count : int;
  (* Serialisation cache: [enc] holds the encoding of the first [enc_upto]
     records, so repeated [to_string]/[output] calls after appends encode
     only the new suffix instead of the whole history. Invalidated by
     [truncate] (the only operation that rewrites history). *)
  enc : Buffer.t;
  mutable enc_upto : int;
}
(* Records are kept newest-first for O(1) append. *)

let create () = { records = []; count = 0; enc = Buffer.create 256; enc_upto = 0 }

let append t r =
  t.records <- r :: t.records;
  t.count <- t.count + 1;
  t.count - 1

let length t = t.count
let records t = List.rev t.records

let nth t i =
  if i < 0 || i >= t.count then invalid_arg "Wal.nth";
  List.nth t.records (t.count - 1 - i)

let truncate t n =
  if n < 0 || n > t.count then invalid_arg "Wal.truncate";
  let rec drop k l = if k = 0 then l else drop (k - 1) (List.tl l) in
  t.records <- drop (t.count - n) t.records;
  t.count <- n;
  Buffer.reset t.enc;
  t.enc_upto <- 0

let committed_txids t =
  let tbl = Hashtbl.create 64 in
  List.iter
    (function
      | Commit txid | Apply { txid; _ } -> Hashtbl.replace tbl txid ()
      | _ -> ())
    t.records;
  tbl

(* --- encoding --- *)

(* Fields are separated by '|'; strings (table names, keys, columns) are
   hex-escaped through Value.encode's Str case so the separator can never
   appear inside a field. *)
let enc_str_into buf s = Value.encode_into buf (Value.Str s)

let dec_str s =
  match Value.decode s with
  | Ok (Value.Str s) -> Ok s
  | Ok _ -> Error "expected string field"
  | Error e -> Error e

let enc_row_into buf row =
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char buf ',';
      Value.encode_into buf v)
    row

let dec_row s =
  if s = "" then Ok [||]
  else
    let parts = String.split_on_char ',' s in
    let rec loop acc = function
      | [] -> Ok (Array.of_list (List.rev acc))
      | p :: rest -> (
          match Value.decode p with Ok v -> loop (v :: acc) rest | Error e -> Error e)
    in
    loop [] parts

let ty_of_name = function
  | "int" -> Ok Value.Tint
  | "float" -> Ok Value.Tfloat
  | "string" -> Ok Value.Tstr
  | "bool" -> Ok Value.Tbool
  | s -> Error ("unknown type " ^ s)

let encode_record_into buf record =
  let tag c txid =
    Buffer.add_char buf c;
    Buffer.add_char buf '|';
    Buffer.add_string buf (string_of_int txid)
  in
  let field_str s =
    Buffer.add_char buf '|';
    enc_str_into buf s
  in
  match record with
  | Create_table { table; columns } ->
      Buffer.add_string buf "T";
      field_str table;
      Buffer.add_char buf '|';
      List.iteri
        (fun i { Schema.name; ty } ->
          if i > 0 then Buffer.add_char buf ',';
          enc_str_into buf name;
          Buffer.add_char buf '=';
          Buffer.add_string buf (Value.ty_name ty))
        columns
  | Begin txid -> tag 'B' txid
  | Insert { txid; table; key; row } ->
      tag 'I' txid;
      field_str table;
      field_str key;
      Buffer.add_char buf '|';
      enc_row_into buf row
  | Update { txid; table; key; col; before; after } ->
      tag 'U' txid;
      field_str table;
      field_str key;
      field_str col;
      Buffer.add_char buf '|';
      Value.encode_into buf before;
      Buffer.add_char buf '|';
      Value.encode_into buf after
  | Delete { txid; table; key; row } ->
      tag 'D' txid;
      field_str table;
      field_str key;
      Buffer.add_char buf '|';
      enc_row_into buf row
  | Commit txid -> tag 'C' txid
  | Abort txid -> tag 'A' txid
  | Apply { txid; table; key; col; before; after } ->
      tag 'P' txid;
      field_str table;
      field_str key;
      field_str col;
      Buffer.add_char buf '|';
      Value.encode_into buf before;
      Buffer.add_char buf '|';
      Value.encode_into buf after

let encode_record record =
  let buf = Buffer.create 64 in
  encode_record_into buf record;
  Buffer.contents buf

let ( let* ) = Result.bind

let int_field s =
  match int_of_string_opt s with Some n -> Ok n | None -> Error ("bad int " ^ s)

let decode_record line =
  match String.split_on_char '|' line with
  | [ "T"; table; cols ] ->
      let* table = dec_str table in
      let col_parts = if cols = "" then [] else String.split_on_char ',' cols in
      let rec loop acc = function
        | [] -> Ok (List.rev acc)
        | p :: rest -> (
            match String.index_opt p '=' with
            | None -> Error ("bad column spec " ^ p)
            | Some i ->
                let* name = dec_str (String.sub p 0 i) in
                let* ty = ty_of_name (String.sub p (i + 1) (String.length p - i - 1)) in
                loop ({ Schema.name; ty } :: acc) rest)
      in
      let* columns = loop [] col_parts in
      Ok (Create_table { table; columns })
  | [ "B"; txid ] ->
      let* txid = int_field txid in
      Ok (Begin txid)
  | [ "I"; txid; table; key; row ] ->
      let* txid = int_field txid in
      let* table = dec_str table in
      let* key = dec_str key in
      let* row = dec_row row in
      Ok (Insert { txid; table; key; row })
  | [ "U"; txid; table; key; col; before; after ] ->
      let* txid = int_field txid in
      let* table = dec_str table in
      let* key = dec_str key in
      let* col = dec_str col in
      let* before = Value.decode before in
      let* after = Value.decode after in
      Ok (Update { txid; table; key; col; before; after })
  | [ "D"; txid; table; key; row ] ->
      let* txid = int_field txid in
      let* table = dec_str table in
      let* key = dec_str key in
      let* row = dec_row row in
      Ok (Delete { txid; table; key; row })
  | [ "C"; txid ] ->
      let* txid = int_field txid in
      Ok (Commit txid)
  | [ "A"; txid ] ->
      let* txid = int_field txid in
      Ok (Abort txid)
  | [ "P"; txid; table; key; col; before; after ] ->
      let* txid = int_field txid in
      let* table = dec_str table in
      let* key = dec_str key in
      let* col = dec_str col in
      let* before = Value.decode before in
      let* after = Value.decode after in
      Ok (Apply { txid; table; key; col; before; after })
  | _ -> Error ("Wal.decode_record: malformed line " ^ line)

(* Bring the cache up to date: encode records [enc_upto, count) onto the
   tail of [enc]. The suffix is the first [count - enc_upto] elements of the
   newest-first list, reversed back into append order. *)
let refresh_cache t =
  if t.enc_upto < t.count then begin
    let rec take n l acc = if n = 0 then acc else take (n - 1) (List.tl l) (List.hd l :: acc) in
    let suffix = take (t.count - t.enc_upto) t.records [] in
    List.iter
      (fun r ->
        if Buffer.length t.enc > 0 then Buffer.add_char t.enc '\n';
        encode_record_into t.enc r)
      suffix;
    t.enc_upto <- t.count
  end

let to_string t =
  refresh_cache t;
  Buffer.contents t.enc

let of_string s =
  let t = create () in
  let lines = if s = "" then [] else String.split_on_char '\n' s in
  let rec loop offset = function
    | [] -> Ok t
    | line :: rest -> (
        match decode_record line with
        | Ok r ->
            ignore (append t r);
            loop (offset + String.length line + 1) rest
        (* An undecodable *final* line is a tail torn by a crash mid-append:
           recover the decoded prefix, exactly what replaying a physical log
           file does. Anywhere else it is corruption and must fail, located
           so the caller can report file:offset context. *)
        | Error _ when rest = [] -> Ok t
        | Error e -> Error (Corruption.v ~segment:0 ~offset e))
  in
  loop 0 lines

let equal_record a b =
  match (a, b) with
  | Create_table x, Create_table y -> x.table = y.table && x.columns = y.columns
  | Begin x, Begin y | Commit x, Commit y | Abort x, Abort y -> x = y
  | Insert x, Insert y ->
      x.txid = y.txid && x.table = y.table && x.key = y.key
      && Array.length x.row = Array.length y.row
      && Array.for_all2 Value.equal x.row y.row
  | Update x, Update y ->
      x.txid = y.txid && x.table = y.table && x.key = y.key && x.col = y.col
      && Value.equal x.before y.before && Value.equal x.after y.after
  | Apply x, Apply y ->
      x.txid = y.txid && x.table = y.table && x.key = y.key && x.col = y.col
      && Value.equal x.before y.before && Value.equal x.after y.after
  | Delete x, Delete y ->
      x.txid = y.txid && x.table = y.table && x.key = y.key
      && Array.length x.row = Array.length y.row
      && Array.for_all2 Value.equal x.row y.row
  | (Create_table _ | Begin _ | Insert _ | Update _ | Delete _ | Commit _ | Abort _ | Apply _), _
    ->
      false

let pp_record ppf r = Format.pp_print_string ppf (encode_record r)
