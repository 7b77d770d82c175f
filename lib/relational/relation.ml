type t = { name : string; schema : Schema.t; rows : Value.t array Vec.t }

let create ~name schema = { name; schema; rows = Vec.create () }

let name t = t.name

let schema t = t.schema

let arity t = Schema.arity t.schema

let cardinality t = Vec.length t.rows

let insert t row =
  if Array.length row <> arity t then
    invalid_arg
      (Printf.sprintf "Relation.insert: row arity %d <> schema arity %d in %s"
         (Array.length row) (arity t) t.name);
  Vec.push t.rows row

let insert_strings t fields =
  insert t (Array.of_list (List.map Value.of_string fields))

let row t i = Vec.get t.rows i

let iter_rows f t = Vec.iter f t.rows

let iteri_rows f t = Vec.iteri f t.rows

let rows t = Vec.to_list t.rows

let col_index t attr =
  match Schema.index_of t.schema attr with
  | Some i -> i
  | None -> raise Not_found

let column t attr =
  let i = col_index t attr in
  Array.init (cardinality t) (fun r -> (Vec.get t.rows r).(i))

let find_row t attr v =
  let i = col_index t attr in
  Vec.find_opt (fun r -> Value.equal r.(i) v) t.rows

module Vtbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)
