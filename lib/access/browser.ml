open Aladin_relational
open Aladin_discovery
open Aladin_links
module Dup = Aladin_dup

type annotation = {
  relation : string;
  fields : (string * string) list;
}

type view = {
  obj : Objref.t;
  fields : (string * string) list;
  annotations : annotation list;
  siblings : Objref.t list;
  duplicates : (Objref.t * float) list;
  conflicts : Dup.Conflict.t list;
  linked : Link.t list;
}

(* a source's rows, indexed once by [create] so that a view reads only
   its own object's rows *)
type rows = {
  rel : Relation.t;
  attrs : string list;  (* the primary relation's attribute names *)
  accessions : string array;  (* primary accessions, in row order *)
  row_of : (string, int) Hashtbl.t;
      (* accession -> the first row whose accession value is that text *)
  secondaries : (string * Relation.t * string list) array;
      (* per secondary entry: its name, its relation, attribute names *)
  owned : int array array;
      (* primary row -> the secondary rows its accession owns, by entry,
         then by row: row r of entry k as r * (number of entries) + k *)
}

type source = { entry : Profile_list.entry; rows : rows option }
(* [rows] is [None] for a source without a primary relation *)

type t = {
  sources : (string * source) list;  (* in Profile_list.find order *)
  index : Link_query.t;
  reprs : Dup.Conflict.table;
}

(* the one place a browser reads whole relations *)
let index_rows (e : Profile_list.entry) =
  let catalog = Profile.catalog e.sp.profile in
  match Source_profile.primary_accession e.sp with
  | None -> None
  | Some (prel, pattr) ->
      let rel = Catalog.find_exn catalog prel in
      let ai = Schema.index_of_exn (Relation.schema rel) pattr in
      let row_of = Hashtbl.create (Relation.cardinality rel) in
      Relation.iteri_rows
        (fun i row ->
          match row.(ai) with
          | Value.Text acc when not (Hashtbl.mem row_of acc) ->
              Hashtbl.add row_of acc i
          | Value.Text _ | Value.Null | Value.Int _ | Value.Float _ -> ())
        rel;
      let entries =
        Array.of_list
          (match e.sp.secondary with None -> [] | Some sec -> sec.entries)
      in
      let n = Array.length entries in
      let owned = Array.make (Relation.cardinality rel) [] in
      (* filled back to front, so that each list comes out by entry, then
         by row *)
      for k = n - 1 downto 0 do
        let owners =
          Owner_map.row_owners e.owner ~relation:entries.(k).Secondary.relation
        in
        for row = Array.length owners - 1 downto 0 do
          List.iter
            (fun acc ->
              match Hashtbl.find_opt row_of acc with
              | Some p -> owned.(p) <- ((row * n) + k) :: owned.(p)
              | None -> ())
            owners.(row)
        done
      done;
      let secondaries =
        Array.map
          (fun (entry : Secondary.entry) ->
            let r = Catalog.find_exn catalog entry.relation in
            (entry.relation, r, Schema.names (Relation.schema r)))
          entries
      in
      Some
        {
          rel;
          attrs = Schema.names (Relation.schema rel);
          accessions = Array.of_list (Owner_map.primary_accessions e.owner);
          row_of;
          secondaries;
          owned = Array.map Array.of_list owned;
        }

let create profiles index reprs =
  {
    sources =
      List.map
        (fun (e : Profile_list.entry) ->
          (Source_profile.source e.sp, { entry = e; rows = index_rows e }))
        (Profile_list.entries profiles);
    index;
    reprs = Dup.Conflict.table reprs;
  }

let with_index t index = { t with index }

let links_of t obj = Link_query.links_of t.index obj

let objects t =
  List.concat_map
    (fun (_, s) ->
      Owner_map.primary_accessions s.entry.owner
      |> List.filter_map (fun accession ->
             Owner_map.objref s.entry.owner ~accession))
    t.sources

let fields_of attrs row =
  List.mapi (fun i attr -> (attr, Value.to_string row.(i))) attrs

let annotations_of p row =
  let n = Array.length p.secondaries in
  Array.fold_right
    (fun x annotations ->
      let relation, rel, attrs = p.secondaries.(x mod n) in
      { relation; fields = fields_of attrs (Relation.row rel (x / n)) }
      :: annotations)
    p.owned.(row) []

(* the row before and the two after, in the primary relation *)
let siblings_of (e : Profile_list.entry) p row =
  List.filter
    (fun i -> i >= 0 && i < Array.length p.accessions)
    [ row - 1; row + 1; row + 2 ]
  |> List.filter_map (fun i ->
         Owner_map.objref e.owner ~accession:p.accessions.(i))

let view t obj =
  match List.assoc_opt obj.Objref.source t.sources with
  | None | Some { rows = None; _ } -> None
  | Some { entry; rows = Some p } -> (
      match Hashtbl.find_opt p.row_of obj.Objref.accession with
      | None -> None
      | Some row ->
          let all_links = links_of t obj in
          let duplicates =
            List.filter_map
              (fun (l : Link.t) ->
                if l.kind = Link.Duplicate then
                  let other = if Objref.equal l.src obj then l.dst else l.src in
                  Some (other, l.confidence)
                else None)
              all_links
          in
          let conflicts = Dup.Conflict.in_duplicates t.reprs all_links in
          let linked =
            List.filter (fun (l : Link.t) -> l.kind <> Link.Duplicate) all_links
            |> List.sort (fun (a : Link.t) (b : Link.t) ->
                   Float.compare b.confidence a.confidence)
          in
          Some
            {
              obj;
              fields = fields_of p.attrs (Relation.row p.rel row);
              annotations = annotations_of p row;
              siblings = siblings_of entry p row;
              duplicates;
              conflicts;
              linked;
            })

let view_accession t ~source accession =
  match List.assoc_opt source t.sources with
  | None -> None
  | Some s -> Option.bind (Owner_map.objref s.entry.owner ~accession) (view t)

let follow t v i =
  match List.nth_opt v.linked i with
  | None -> None
  | Some l ->
      let other = if Objref.equal l.src v.obj then l.dst else l.src in
      view t other

(* [value], cut to [n] bytes with "..." for its last three when longer *)
let add_clipped buf n value =
  if String.length value > n then begin
    Buffer.add_substring buf value 0 (n - 3);
    Buffer.add_string buf "..."
  end
  else Buffer.add_string buf value

let render v =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "=== %s ===\n" (Objref.to_string v.obj);
  List.iter
    (fun (attr, value) ->
      Printf.bprintf buf "  %-20s " attr;
      add_clipped buf 70 value;
      Buffer.add_char buf '\n')
    v.fields;
  if v.annotations <> [] then begin
    Buffer.add_string buf "-- annotations --\n";
    List.iter
      (fun a ->
        Printf.bprintf buf "  [%s] " a.relation;
        List.iteri
          (fun i (k, value) ->
            if i > 0 then Buffer.add_string buf "; ";
            Printf.bprintf buf "%s=" k;
            add_clipped buf 30 value)
          a.fields;
        Buffer.add_char buf '\n')
      v.annotations
  end;
  if v.duplicates <> [] then begin
    Buffer.add_string buf "-- duplicates --\n";
    List.iter
      (fun (o, c) -> Printf.bprintf buf "  %s (%.2f)\n" (Objref.to_string o) c)
      v.duplicates
  end;
  if v.conflicts <> [] then begin
    Buffer.add_string buf "-- conflicts (!) --\n";
    List.iter
      (fun c -> Printf.bprintf buf "  %s\n" (Dup.Conflict.to_string c))
      v.conflicts
  end;
  if v.linked <> [] then begin
    Buffer.add_string buf "-- links --\n";
    List.iteri
      (fun i (l : Link.t) ->
        let other = if Objref.equal l.src v.obj then l.dst else l.src in
        Printf.bprintf buf "  [%d] %s %s (%.2f)\n" i (Link.kind_name l.kind)
          (Objref.to_string other) l.confidence)
      v.linked
  end;
  Buffer.contents buf
