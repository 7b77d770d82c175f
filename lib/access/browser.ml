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

type t = {
  profiles : Profile_list.t;
  index : Link_query.t;
  reprs : Dup.Conflict.table;
}

let create profiles index reprs =
  { profiles; index; reprs = Dup.Conflict.table reprs }

let links_of t obj = Link_query.links_of t.index obj

let entry_of t source = Profile_list.find t.profiles source

let objects t =
  Profile_list.entries t.profiles
  |> List.concat_map (fun (e : Profile_list.entry) ->
         Owner_map.primary_accessions e.owner
         |> List.filter_map (fun accession ->
                Owner_map.objref e.owner ~accession))

let primary_row_fields e (obj : Objref.t) =
  let catalog = Profile.catalog (e : Profile_list.entry).sp.profile in
  match Source_profile.primary_accession e.sp with
  | None -> None
  | Some (prel, pattr) ->
      let rel = Catalog.find_exn catalog prel in
      Relation.find_row rel pattr (Value.text obj.Objref.accession)
      |> Option.map (fun row ->
             List.mapi
               (fun i attr -> (attr, Value.to_string row.(i)))
               (Schema.names (Relation.schema rel)))

let annotations_of e (obj : Objref.t) =
  let catalog = Profile.catalog (e : Profile_list.entry).sp.profile in
  match e.sp.secondary with
  | None -> []
  | Some sec ->
      List.concat_map
        (fun (entry : Secondary.entry) ->
          let rel = Catalog.find_exn catalog entry.relation in
          let attrs = Schema.names (Relation.schema rel) in
          let rows = ref [] in
          Relation.iteri_rows
            (fun row_i row ->
              let owners =
                Owner_map.owners e.owner ~relation:entry.relation ~row:row_i
              in
              if List.mem obj.Objref.accession owners then
                rows :=
                  {
                    relation = entry.relation;
                    fields =
                      List.mapi (fun i a -> (a, Value.to_string row.(i))) attrs;
                  }
                  :: !rows)
            rel;
          List.rev !rows)
        sec.entries

let siblings_of e (obj : Objref.t) =
  let accs = Owner_map.primary_accessions (e : Profile_list.entry).owner in
  let rec find_window prev = function
    | [] -> []
    | acc :: rest when acc = obj.Objref.accession ->
        let nexts = List.filteri (fun i _ -> i < 2) rest in
        (match prev with Some p -> [ p ] | None -> []) @ nexts
    | acc :: rest -> find_window (Some acc) rest
  in
  find_window None accs
  |> List.filter_map (fun accession -> Owner_map.objref e.owner ~accession)

let view t obj =
  match entry_of t obj.Objref.source with
  | None -> None
  | Some e -> (
      match primary_row_fields e obj with
      | None -> None
      | Some fields ->
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
              fields;
              annotations = annotations_of e obj;
              siblings = siblings_of e obj;
              duplicates;
              conflicts;
              linked;
            })

let view_accession t ~source accession =
  match entry_of t source with
  | None -> None
  | Some e -> (
      match Owner_map.objref e.owner ~accession with
      | None -> None
      | Some obj -> view t obj)

let follow t v i =
  match List.nth_opt v.linked i with
  | None -> None
  | Some l ->
      let other = if Objref.equal l.src v.obj then l.dst else l.src in
      view t other

let render v =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "=== %s ===\n" (Objref.to_string v.obj);
  List.iter
    (fun (attr, value) ->
      let value =
        if String.length value > 70 then String.sub value 0 67 ^ "..." else value
      in
      add "  %-20s %s\n" attr value)
    v.fields;
  if v.annotations <> [] then begin
    add "-- annotations --\n";
    List.iter
      (fun a ->
        add "  [%s] %s\n" a.relation
          (String.concat "; "
             (List.map
                (fun (k, value) ->
                  let value =
                    if String.length value > 30 then String.sub value 0 27 ^ "..."
                    else value
                  in
                  k ^ "=" ^ value)
                a.fields)))
      v.annotations
  end;
  if v.duplicates <> [] then begin
    add "-- duplicates --\n";
    List.iter
      (fun (o, c) -> add "  %s (%.2f)\n" (Objref.to_string o) c)
      v.duplicates
  end;
  if v.conflicts <> [] then begin
    add "-- conflicts (!) --\n";
    List.iter
      (fun c -> add "  %s\n" (Format.asprintf "%a" Dup.Conflict.pp c))
      v.conflicts
  end;
  if v.linked <> [] then begin
    add "-- links --\n";
    List.iteri
      (fun i (l : Link.t) ->
        let other = if Objref.equal l.src v.obj then l.dst else l.src in
        add "  [%d] %s %s (%.2f)\n" i (Link.kind_name l.kind)
          (Objref.to_string other) l.confidence)
      v.linked
  end;
  Buffer.contents buf
