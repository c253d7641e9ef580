(* Rows live in a hash table keyed by primary key: point operations are
   O(1). Ordered traversal sorts the keys on demand; only joins, history
   reads and recovery traverse, never the write path. *)
type t = { name : string; schema : Schema.t; rows : (string, Value.t array) Hashtbl.t }

let create ~name schema = { name; schema; rows = Hashtbl.create 16 }
let name t = t.name
let schema t = t.schema

let insert t ~key row =
  if Hashtbl.mem t.rows key then Error (Printf.sprintf "duplicate key %S" key)
  else
    match Schema.validate_row t.schema row with
    | Error e -> Error e
    | Ok () ->
        Hashtbl.add t.rows key (Array.copy row);
        Ok ()

let get t ~key = Option.map Array.copy (Hashtbl.find_opt t.rows key)

let get_col t ~key ~col =
  match Hashtbl.find t.rows key with
  | exception Not_found -> Error (Printf.sprintf "no such key %S" key)
  | row -> (
      match Schema.index_opt t.schema col with
      | None -> Error (Printf.sprintf "no such column %S" col)
      | Some i -> Ok row.(i))

let set_col t ~key ~col value =
  match Hashtbl.find t.rows key with
  | exception Not_found -> Error (Printf.sprintf "no such key %S" key)
  | row -> (
      match Schema.index_opt t.schema col with
      | None -> Error (Printf.sprintf "no such column %S" col)
      | Some i ->
          if Value.type_of value <> Schema.column_ty t.schema col then
            Error
              (Printf.sprintf "column %S expects %s" col
                 (Value.ty_name (Schema.column_ty t.schema col)))
          else begin
            let old = row.(i) in
            row.(i) <- value;
            Ok old
          end)

let add_int_swap t ~key ~col delta =
  match Hashtbl.find t.rows key with
  | exception Not_found -> Error (Printf.sprintf "no such key %S" key)
  | row -> (
      match Schema.index t.schema col with
      | exception Not_found -> Error (Printf.sprintf "no such column %S" col)
      | i -> (
          match Value.add_int row.(i) delta with
          | exception Invalid_argument e -> Error e
          | v ->
              let before = row.(i) in
              row.(i) <- v;
              Ok (before, v)))

let add_int t ~key ~col delta =
  match add_int_swap t ~key ~col delta with
  | Error _ as e -> e
  | Ok (_, v) -> Ok (match v with Value.Int n -> n | v -> int_of_float (Value.as_float v))

let delete t ~key =
  match Hashtbl.find t.rows key with
  | exception Not_found -> None
  | row ->
      Hashtbl.remove t.rows key;
      Some row

let mem t ~key = Hashtbl.mem t.rows key
let size t = Hashtbl.length t.rows

(* Sorted once up front, so [f] may mutate the table: it still sees every
   row that was live when the traversal began. *)
let bindings t =
  Hashtbl.fold (fun k row acc -> (k, row) :: acc) t.rows []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let keys t = List.map fst (bindings t)
let iter t f = List.iter (fun (k, row) -> f k row) (bindings t)
let fold t ~init ~f = List.fold_left (fun acc (k, row) -> f acc k row) init (bindings t)

let equal_contents a b =
  size a = size b
  && List.for_all
       (fun k ->
         match (get a ~key:k, get b ~key:k) with
         | Some ra, Some rb ->
             Array.length ra = Array.length rb
             && Array.for_all2 Value.equal ra rb
         | _ -> false)
       (keys a)
