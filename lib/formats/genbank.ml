open Aladin_relational

type feature = { key : string; location : string; qualifiers : (string * string) list }

type record = {
  locus : string;
  definition : string;
  accession : string;
  organism : string;
  features : feature list;
  origin : string;
}

let empty_record =
  { locus = ""; definition = ""; accession = ""; organism = ""; features = [];
    origin = "" }

type section = Header | In_features | In_origin

let first_token s =
  match String.split_on_char ' ' (String.trim s) |> List.filter (( <> ) "") with
  | t :: _ -> t
  | [] -> ""

let rest_after_keyword line =
  (* drop the leading keyword column (first 12 chars by convention, but be
     lenient: strip the first token) *)
  let t = String.trim line in
  match String.index_opt t ' ' with
  | Some i -> String.trim (String.sub t i (String.length t - i))
  | None -> ""

let parse_qualifier line =
  (* /key="value" or /key=value or bare /key *)
  let t = String.trim line in
  if String.length t < 2 || t.[0] <> '/' then None
  else
    let body = String.sub t 1 (String.length t - 1) in
    match String.index_opt body '=' with
    | None -> Some (body, "")
    | Some i ->
        let key = String.sub body 0 i in
        let v = String.sub body (i + 1) (String.length body - i - 1) in
        let v =
          let n = String.length v in
          if n >= 2 && v.[0] = '"' && v.[n - 1] = '"' then String.sub v 1 (n - 2)
          else v
        in
        Some (key, v)

let letters line =
  String.to_seq line
  |> Seq.filter (fun c -> (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'))
  |> String.of_seq

let records doc =
  let out = ref [] in
  let cur = ref None in
  let section = ref Header in
  let origin_buf = Buffer.create 256 in
  let features_rev : feature list ref = ref [] in
  let flush_feature f = match f with Some ft -> features_rev := ft :: !features_rev | None -> () in
  let open_feature : feature option ref = ref None in
  let finish () =
    match !cur with
    | None -> ()
    | Some r ->
        flush_feature !open_feature;
        open_feature := None;
        out :=
          { r with
            features = List.rev !features_rev;
            origin = Buffer.contents origin_buf }
          :: !out;
        cur := None;
        features_rev := [];
        Buffer.clear origin_buf;
        section := Header
  in
  String.split_on_char '\n' doc
  |> List.iter (fun raw ->
         let trimmed = String.trim raw in
         if trimmed = "//" then finish ()
         else if trimmed = "" then ()
         else begin
           let keyword = first_token raw in
           (* top-level keywords start at column 0 *)
           let top_level = String.length raw > 0 && raw.[0] <> ' ' in
           if top_level && keyword = "LOCUS" then begin
             finish ();
             cur := Some { empty_record with locus = first_token (rest_after_keyword raw) }
           end
           else
             match !cur with
             | None -> ()
             | Some r ->
                 if top_level then begin
                   section := Header;
                   match keyword with
                   | "DEFINITION" ->
                       cur := Some { r with definition = rest_after_keyword raw }
                   | "ACCESSION" ->
                       cur := Some { r with accession = first_token (rest_after_keyword raw) }
                   | "SOURCE" ->
                       cur := Some { r with organism = rest_after_keyword raw }
                   | "FEATURES" -> section := In_features
                   | "ORIGIN" -> section := In_origin
                   | _ -> ()
                 end
                 else begin
                   match !section with
                   | Header ->
                       (* continuation of DEFINITION etc. *)
                       if r.definition <> "" then
                         cur := Some { r with definition = r.definition ^ " " ^ trimmed }
                   | In_origin -> Buffer.add_string origin_buf (letters trimmed)
                   | In_features -> (
                       match parse_qualifier trimmed with
                       | Some (k, v) -> (
                           match !open_feature with
                           | Some ft ->
                               open_feature :=
                                 Some { ft with qualifiers = ft.qualifiers @ [ (k, v) ] }
                           | None -> ())
                       | None -> (
                           (* a new feature: "KEY   location" *)
                           match
                             String.split_on_char ' ' trimmed
                             |> List.filter (( <> ) "")
                           with
                           | key :: loc :: _ ->
                               flush_feature !open_feature;
                               open_feature :=
                                 Some { key; location = loc; qualifiers = [] }
                           | [ key ] ->
                               flush_feature !open_feature;
                               open_feature := Some { key; location = ""; qualifiers = [] }
                           | [] -> ()))
                 end
         end);
  finish ();
  List.rev !out

let catalog ~name ~seq_relation records =
  let cat = Catalog.create ~name in
  let entry =
    Catalog.create_relation cat ~name:"entry"
      (Schema.of_names [ "entry_id"; "accession"; "locus_name"; "definition"; "organism" ])
  in
  let feature_rel =
    Catalog.create_relation cat ~name:"feature"
      (Schema.of_names [ "feature_id"; "entry_id"; "feature_key"; "location" ])
  in
  let qualifier =
    Catalog.create_relation cat ~name:"qualifier"
      (Schema.of_names [ "qualifier_id"; "feature_id"; "qual_key"; "qual_value" ])
  in
  let seqrel =
    Catalog.create_relation cat ~name:seq_relation
      (Schema.of_names [ "entry_id"; "sequence" ])
  in
  let next_feature = ref 1 and next_qual = ref 1 in
  List.iteri
    (fun i r ->
      let eid = i + 1 in
      Relation.insert entry
        [| Value.Int eid; Value.text r.accession; Value.text r.locus;
           Value.text r.definition; Value.text r.organism |];
      List.iter
        (fun ft ->
          let fid = !next_feature in
          incr next_feature;
          Relation.insert feature_rel
            [| Value.Int fid; Value.Int eid; Value.text ft.key;
               Value.text ft.location |];
          List.iter
            (fun (k, v) ->
              Relation.insert qualifier
                [| Value.Int !next_qual; Value.Int fid; Value.text k; Value.text v |];
              incr next_qual)
            ft.qualifiers)
        r.features;
      if r.origin <> "" then
        Relation.insert seqrel
          [| Value.Int eid; Value.text (String.uppercase_ascii r.origin) |])
    records;
  cat

let parse ?(name = "genbank") doc =
  catalog ~name ~seq_relation:"genbank_seq" (records doc)

let wrap_origin s =
  let s = String.lowercase_ascii s in
  let buf = Buffer.create (String.length s * 2) in
  let n = String.length s in
  let rec line i =
    if i < n then begin
      Buffer.add_string buf (Printf.sprintf "%9d " (i + 1));
      let stop = min n (i + 60) in
      let rec chunk j =
        if j < stop then begin
          Buffer.add_string buf (String.sub s j (min 10 (stop - j)));
          if j + 10 < stop then Buffer.add_char buf ' ';
          chunk (j + 10)
        end
      in
      chunk i;
      Buffer.add_char buf '\n';
      line (i + 60)
    end
  in
  line 0;
  Buffer.contents buf

let render rs =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun r ->
      add "LOCUS       %s %d bp\n" r.locus (String.length r.origin);
      add "DEFINITION  %s\n" r.definition;
      add "ACCESSION   %s\n" r.accession;
      add "SOURCE      %s\n" r.organism;
      if r.features <> [] then begin
        add "FEATURES             Location/Qualifiers\n";
        List.iter
          (fun ft ->
            add "     %-15s %s\n" ft.key
              (if ft.location = "" then "1" else ft.location);
            List.iter
              (fun (k, v) ->
                if v = "" then add "                     /%s\n" k
                else add "                     /%s=\"%s\"\n" k v)
              ft.qualifiers)
          r.features
      end;
      if r.origin <> "" then begin
        add "ORIGIN\n";
        Buffer.add_string buf (wrap_origin r.origin)
      end;
      add "//\n")
    rs;
  Buffer.contents buf
