open Aladin_discovery
open Aladin_links
module Serial = Aladin_store.Serial

type t = {
  links : (string list, unit) Hashtbl.t;
      (* a rejection: the normalized endpoints' (source, relation,
         accession) and the kind — the identity [Link.dedup] keeps *)
  rendered : (string list, unit) Hashtbl.t;
      (* a rejection read from an older feedback.txt: the normalized
         endpoints rendered as [source:accession], and the kind. It hides
         every link that renders alike, as it did when it was written *)
  fks : (string, unit) Hashtbl.t;
}

let create () =
  { links = Hashtbl.create 32; rendered = Hashtbl.create 8; fks = Hashtbl.create 32 }

let link_key l =
  let l = Link.normalized l in
  [ l.src.source; l.src.relation; l.src.accession; l.dst.source;
    l.dst.relation; l.dst.accession; Link.kind_name l.kind ]

let rendered_key l =
  let l = Link.normalized l in
  [ Objref.to_string l.src; Objref.to_string l.dst; Link.kind_name l.kind ]

let fk_key ~source (fk : Inclusion.fk) =
  String.lowercase_ascii
    (String.concat "\x00"
       [ source; fk.src_relation; fk.src_attribute; fk.dst_relation;
         fk.dst_attribute ])

let reject_link t l = Hashtbl.replace t.links (link_key l) ()

let is_link_rejected t l =
  Hashtbl.mem t.links (link_key l)
  || (Hashtbl.length t.rendered > 0 && Hashtbl.mem t.rendered (rendered_key l))

let is_fk_rejected t ~source fk = Hashtbl.mem t.fks (fk_key ~source fk)

let filter_links t links =
  if Hashtbl.length t.links = 0 && Hashtbl.length t.rendered = 0 then links
  else List.filter (fun l -> not (is_link_rejected t l)) links

let filter_fks t ~source fks =
  List.filter (fun fk -> not (is_fk_rejected t ~source fk)) fks

let sorted_keys tbl = Hashtbl.fold (fun k () acc -> k :: acc) tbl [] |> List.sort compare

let save t =
  (* sorted, so the rendering is a pure function of the rejection set and
     snapshot re-saves of an unchanged warehouse are byte-identical *)
  let buf = Buffer.create 256 in
  Buffer.add_string buf "aladin-feedback\t1\n";
  List.iter
    (fun key ->
      Buffer.add_string buf (Serial.record ("link" :: key));
      Buffer.add_char buf '\n')
    (sorted_keys t.links @ sorted_keys t.rendered);
  List.iter
    (fun key ->
      Buffer.add_string buf
        (Serial.record ("fk" :: String.split_on_char '\x00' key));
      Buffer.add_char buf '\n')
    (sorted_keys t.fks);
  Buffer.contents buf

let apply_line t line =
  match Serial.fields line with
  | "link" :: rest when List.length rest = 7 -> Hashtbl.replace t.links rest ()
  | "link" :: rest when List.length rest = 3 -> Hashtbl.replace t.rendered rest ()
  | "fk" :: rest when List.length rest = 5 ->
      Hashtbl.replace t.fks (String.concat "\x00" rest) ()
  | _ -> invalid_arg (Printf.sprintf "Feedback: bad line %S" line)

let header_fields = [ "aladin-feedback"; "1" ]

let load_salvaging doc =
  let t = create () in
  let dropped = ref 0 in
  let lines = String.split_on_char '\n' doc |> List.filter (( <> ) "") in
  let body =
    match lines with
    | first :: rest when Serial.fields first = header_fields -> rest
    | [] -> []
    | _ :: _ ->
        incr dropped;
        lines
  in
  List.iter
    (fun line ->
      try apply_line t line with Invalid_argument _ -> incr dropped)
    body;
  (t, !dropped)
