open Aladin_links
module Csv = Aladin_relational.Csv

let to_csv links =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "src_source,src_accession,dst_source,dst_accession,kind,confidence,evidence\n";
  List.iter
    (fun (l : Link.t) ->
      Buffer.add_string buf
        (Csv.render_line
           [ l.src.Objref.source; l.src.Objref.accession; l.dst.Objref.source;
             l.dst.Objref.accession; Link.kind_name l.kind;
             Printf.sprintf "%.3f" l.confidence; l.evidence ]);
      Buffer.add_char buf '\n')
    links;
  Buffer.contents buf

let node_id (o : Objref.t) =
  "n_"
  ^ String.map
      (fun c ->
        if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
        then c
        else '_')
      (o.source ^ "_" ^ o.accession)

let edge_style = function
  | Link.Duplicate -> "style=bold, color=red"
  | Link.Xref -> "style=solid"
  | Link.Seq_similarity -> "style=dashed, color=blue"
  | Link.Text_similarity -> "style=dashed, color=gray"
  | Link.Shared_term -> "style=dotted"
  | Link.Entity_mention -> "style=dotted, color=gray"

(* edges drawn, the most confident first *)
let max_links = 500

let to_dot links =
  let links =
    links
    |> List.sort (fun (a : Link.t) (b : Link.t) ->
           Float.compare b.confidence a.confidence)
    |> List.filteri (fun i _ -> i < max_links)
  in
  let by_source : (string, Objref.t list ref) Hashtbl.t = Hashtbl.create 8 in
  let seen = Hashtbl.create 256 in
  let note (o : Objref.t) =
    let key = Objref.to_string o in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      match Hashtbl.find_opt by_source o.source with
      | Some l -> l := o :: !l
      | None -> Hashtbl.add by_source o.source (ref [ o ])
    end
  in
  List.iter
    (fun (l : Link.t) ->
      note l.src;
      note l.dst)
    links;
  let buf = Buffer.create 8192 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "graph aladin {\n  rankdir=LR;\n  node [shape=box, fontsize=9];\n";
  let sources =
    Hashtbl.fold (fun s _ acc -> s :: acc) by_source [] |> List.sort String.compare
  in
  List.iteri
    (fun i source ->
      add "  subgraph cluster_%d {\n    label=\"%s\";\n" i source;
      let members = !(Hashtbl.find by_source source) in
      List.iter
        (fun (o : Objref.t) ->
          add "    %s [label=\"%s\"];\n" (node_id o) o.accession)
        (List.sort Objref.compare members);
      add "  }\n")
    sources;
  List.iter
    (fun (l : Link.t) ->
      add "  %s -- %s [%s, label=\"%s\", fontsize=7];\n" (node_id l.src)
        (node_id l.dst) (edge_style l.kind) (Link.kind_name l.kind))
    links;
  add "}\n";
  Buffer.contents buf
