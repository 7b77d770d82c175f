type attribute = { name : string; ty : Value.ty }

type t = { attrs : attribute array; index : (string, int) Hashtbl.t }

let norm = String.lowercase_ascii

let make attrs =
  let index = Hashtbl.create 16 in
  List.iteri
    (fun i a ->
      let key = norm a.name in
      if Hashtbl.mem index key then
        invalid_arg (Printf.sprintf "Schema.make: duplicate attribute %S" a.name);
      Hashtbl.add index key i)
    attrs;
  { attrs = Array.of_list attrs; index }

let of_names names = make (List.map (fun name -> { name; ty = Value.Ttext }) names)

let arity t = Array.length t.attrs

let attributes t = Array.to_list t.attrs

let names t = List.map (fun a -> a.name) (attributes t)

let index_of t name = Hashtbl.find_opt t.index (norm name)

let index_of_exn t name =
  match index_of t name with Some i -> i | None -> raise Not_found

let mem t name = Hashtbl.mem t.index (norm name)
