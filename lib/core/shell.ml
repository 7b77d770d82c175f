open Aladin_links
open Aladin_access

type t = {
  eng : Engine.t;
  mutable current : Browser.view option;
}

let create eng = { eng; current = None }

let help_text =
  "commands:\n\
  \  sources | view <acc> | view <source> <acc> | follow <n> | search <terms>\n\
  \  sql <query> | links <acc> | dups | reject <n> | save <dir> | help | quit\n"

let sources_text t = Aladin_system.summary (Engine.warehouse t.eng)

let resolve_view t args =
  match args with
  | [ accession ] -> Engine.browse t.eng accession
  | [ source; accession ] -> Engine.browse t.eng ~source accession
  | _ -> None

let view t args =
  match resolve_view t args with
  | Some v ->
      t.current <- Some v;
      Browser.render v
  | None -> Printf.sprintf "object %s not found\n" (String.concat " " args)

let follow t n =
  match t.current with
  | None -> "nothing viewed yet; use: view <accession>\n"
  | Some v -> (
      match Engine.follow t.eng v n with
      | Some v2 ->
          t.current <- Some v2;
          Browser.render v2
      | None -> Printf.sprintf "no link %d on %s\n" n (Objref.to_string v.obj))

let search t terms =
  let hits = Engine.search t.eng (String.concat " " terms) in
  if hits = [] then "(no hits)\n"
  else
    String.concat ""
      (List.map
         (fun (h : Search.hit) ->
           Printf.sprintf "%-28s %.3f  [%s]\n" (Objref.to_string h.obj) h.score
             (String.concat ", " h.matched))
         hits)

let sql t query =
  match Engine.query t.eng query with
  | Ok result -> Sql_eval.render_result result ^ "\n"
  | Error msg -> msg ^ "\n"

let links t accession =
  match Engine.resolve t.eng accession with
  | None -> Printf.sprintf "object %s not found\n" accession
  | Some obj ->
      let ls = Browser.links_of (Engine.browser t.eng) obj in
      if ls = [] then "(no links)\n"
      else
        String.concat ""
          (List.map (fun l -> Format.asprintf "%a@." Link.pp l) ls)

let dups t =
  let d = Warehouse.duplicates (Engine.warehouse t.eng) in
  Printf.sprintf "%d clusters\n%s" (List.length d.clusters)
    (String.concat ""
       (List.map
          (fun c -> Printf.sprintf "  { %s }\n" (String.concat ", " c))
          d.clusters))

let reject t n =
  match t.current with
  | None -> "nothing viewed yet; use: view <accession>\n"
  | Some v -> (
      match List.nth_opt v.linked n with
      | None -> Printf.sprintf "no link %d\n" n
      | Some l ->
          Engine.reject_link t.eng l;
          (* view the object again so the link disappears *)
          t.current <- Engine.view t.eng v.obj;
          Printf.sprintf "rejected: %s\n" (Format.asprintf "%a" Link.pp l))

let save t dir =
  match Warehouse.save_dir (Engine.warehouse t.eng) dir with
  | Ok () -> Printf.sprintf "warehouse saved to %s\n" dir
  | Error msg -> Printf.sprintf "save failed: %s\n" msg
  | exception Sys_error msg -> Printf.sprintf "save failed: %s\n" msg

let execute t line =
  let words =
    String.split_on_char ' ' (String.trim line) |> List.filter (( <> ) "")
  in
  match words with
  | [] -> `Output ""
  | [ "quit" ] | [ "exit" ] -> `Quit
  | [ "help" ] -> `Output help_text
  | [ "sources" ] -> `Output (sources_text t)
  | "view" :: args when args <> [] -> `Output (view t args)
  | [ "follow"; n ] -> (
      match int_of_string_opt n with
      | Some i -> `Output (follow t i)
      | None -> `Output "usage: follow <n>\n")
  | "search" :: terms when terms <> [] -> `Output (search t terms)
  | "sql" :: rest when rest <> [] -> `Output (sql t (String.concat " " rest))
  | [ "links"; accession ] -> `Output (links t accession)
  | [ "dups" ] -> `Output (dups t)
  | [ "reject"; n ] -> (
      match int_of_string_opt n with
      | Some i -> `Output (reject t i)
      | None -> `Output "usage: reject <n>\n")
  | [ "save"; dir ] -> `Output (save t dir)
  | cmd :: _ -> `Output (Printf.sprintf "unknown command %s; try help\n" cmd)

let repl t ic oc =
  let rec loop () =
    output_string oc "aladin> ";
    flush oc;
    match input_line ic with
    | exception End_of_file -> ()
    | line -> (
        match execute t line with
        | `Quit -> ()
        | `Output s ->
            output_string oc s;
            flush oc;
            loop ())
  in
  loop ()
