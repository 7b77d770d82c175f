type t = {
  title : string;
  columns : string list;
  mutable rows : string list list;
}

let create ~title ~columns = { title; columns; rows = [] }

let add_row t row =
  if List.length row <> List.length t.columns then
    invalid_arg
      (Printf.sprintf "Report.add_row (%s): %d cells, %d columns" t.title
         (List.length row) (List.length t.columns));
  t.rows <- t.rows @ [ row ]

let cell_f f = Printf.sprintf "%.3f" f

let render t =
  let all = t.columns :: t.rows in
  let ncols = List.length t.columns in
  let width i =
    List.fold_left (fun acc row -> max acc (String.length (List.nth row i))) 0 all
  in
  let widths = List.init ncols width in
  let line row =
    "| "
    ^ String.concat " | "
        (List.mapi (fun i cell -> Printf.sprintf "%-*s" (List.nth widths i) cell) row)
    ^ " |"
  in
  let sep =
    "+" ^ String.concat "+" (List.map (fun w -> String.make (w + 2) '-') widths) ^ "+"
  in
  String.concat "\n"
    ([ ""; "== " ^ t.title ^ " =="; sep; line t.columns; sep ]
    @ List.map line t.rows
    @ [ sep ])

let print t =
  print_endline (render t)
