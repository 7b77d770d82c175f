open Aladin_links
module Serial = Aladin_store.Serial

type entry = {
  xref_links : Link.t list;
  correspondences : Xref_disc.correspondence list;
  seq_links : Link.t list;
  text_links : Link.t list;
  dup_links : Link.t list;
  dup_candidates : int;
}

let empty_entry =
  { xref_links = []; correspondences = []; seq_links = []; text_links = [];
    dup_links = []; dup_candidates = 0 }

type t = {
  tbl : (string * string, entry) Hashtbl.t;
  mutable onto_links : Link.t list;
  mutable onto_present : bool;
}

let create () = { tbl = Hashtbl.create 32; onto_links = []; onto_present = false }

let canon a b = if String.compare a b <= 0 then (a, b) else (b, a)

let find t a b = Hashtbl.find_opt t.tbl (canon a b)

let set t a b e = Hashtbl.replace t.tbl (canon a b) e

let mem t a b = Hashtbl.mem t.tbl (canon a b)

let pairs t =
  Hashtbl.fold (fun k e acc -> (k, e) :: acc) t.tbl []
  |> List.sort (fun (ka, _) (kb, _) -> compare ka kb)

let pair_keys t = List.map fst (pairs t)

let onto t = t.onto_links

let set_onto t links =
  t.onto_links <- links;
  t.onto_present <- true

let all_links t =
  let per_pair =
    List.concat_map
      (fun (_, e) -> e.xref_links @ e.seq_links @ e.text_links @ e.dup_links)
      (pairs t)
  in
  Link.dedup (per_pair @ t.onto_links)

let compare_corr (a : Xref_disc.correspondence) (b : Xref_disc.correspondence) =
  compare
    (a.src_source, a.src_relation, a.src_attribute, a.dst_source,
     a.dst_relation, a.dst_attribute)
    (b.src_source, b.src_relation, b.src_attribute, b.dst_source,
     b.dst_relation, b.dst_attribute)

let correspondences t =
  List.concat_map (fun (_, e) -> e.correspondences) (pairs t)
  |> List.sort compare_corr

let dup_candidates_total t =
  List.fold_left (fun acc (_, e) -> acc + e.dup_candidates) 0 (pairs t)

let exclude_triples t ~source =
  List.filter_map
    (fun (c : Xref_disc.correspondence) ->
      if c.src_source = source then
        Some (c.src_source, c.src_relation, c.src_attribute)
      else None)
    (correspondences t)
  |> List.sort_uniq compare

(* --- serialization ---

   One line-record document, same tab-separated Serial framing as the
   metadata repository. Layout:

     pairstore  <version>
     pair  <a>  <b>  <n-items>  <dup-candidates>
     plink  ss sr sa ds dr da kind confidence evidence   (xN, any pass)
     pcorr  ss sr sa ds dr da matches frac encoded       (interleaved)
     onto  <n-items>
     plink  ...

   The file is the store's only record of its links, so the reader
   salvages record by record: each link and correspondence goes to the
   canonical pair of its own endpoints' sources (a shared-term link to
   the onto list), and a [pair] header is read only for its
   dup-candidate count. A damaged line loses that line alone.

   A metadata.txt written before the links moved here carries the same
   records tagged [link] and [corr]; [seed_missing] reads those with
   the same field parsers. *)

let version = 1

let kind_of_string = function
  | "xref" -> Some Link.Xref
  | "seq" -> Some Link.Seq_similarity
  | "text" -> Some Link.Text_similarity
  | "shared-term" -> Some Link.Shared_term
  | "mention" -> Some Link.Entity_mention
  | "duplicate" -> Some Link.Duplicate
  | _ -> None

let link_line (l : Link.t) =
  Serial.record
    [ "plink"; l.src.source; l.src.relation; l.src.accession; l.dst.source;
      l.dst.relation; l.dst.accession; Link.kind_name l.kind;
      Serial.float_to_string l.confidence; l.evidence ]

let corr_line (c : Xref_disc.correspondence) =
  Serial.record
    [ "pcorr"; c.src_source; c.src_relation; c.src_attribute; c.dst_source;
      c.dst_relation; c.dst_attribute; string_of_int c.matches;
      Serial.float_to_string c.match_frac; string_of_bool c.encoded ]

(* the fields after a link or correspondence record's tag *)
let parse_link = function
  | [ ss; sr; sa; ds; dr; da; kind; conf; evidence ] -> (
      match
        ( kind_of_string kind,
          try Some (Serial.float_of_string_exn conf)
          with Invalid_argument _ -> None )
      with
      | Some kind, Some confidence ->
          Some
            (Link.make
               ~src:(Objref.make ~source:ss ~relation:sr ~accession:sa)
               ~dst:(Objref.make ~source:ds ~relation:dr ~accession:da)
               ~kind ~confidence ~evidence)
      | _ -> None)
  | _ -> None

let parse_corr = function
  | [ ss; sr; sa; ds; dr; da; matches; frac; encoded ] -> (
      match
        ( int_of_string_opt matches,
          (try Some (Serial.float_of_string_exn frac)
           with Invalid_argument _ -> None),
          bool_of_string_opt encoded )
      with
      | Some matches, Some match_frac, Some encoded ->
          Some
            { Xref_disc.src_source = ss; src_relation = sr; src_attribute = sa;
              dst_source = ds; dst_relation = dr; dst_attribute = da;
              matches; match_frac; encoded }
      | _ -> None)
  | _ -> None

let entry_lines e =
  List.map link_line e.xref_links
  @ List.map corr_line e.correspondences
  @ List.map link_line e.seq_links
  @ List.map link_line e.text_links
  @ List.map link_line e.dup_links

let save t =
  let buf = Buffer.create 4096 in
  let line l = Buffer.add_string buf l; Buffer.add_char buf '\n' in
  line (Serial.record [ "pairstore"; string_of_int version ]);
  List.iter
    (fun ((a, b), e) ->
      let items = entry_lines e in
      line
        (Serial.record
           [ "pair"; a; b; string_of_int (List.length items);
             string_of_int e.dup_candidates ]);
      List.iter line items)
    (pairs t);
  line (Serial.record [ "onto"; string_of_int (List.length t.onto_links) ]);
  List.iter (fun l -> line (link_line l)) t.onto_links;
  Buffer.contents buf

(* --- routing, shared by [load] and [seed_missing]: each record is
   consed onto its pair's list of its kind, and [reverse_all] reverses
   every list once at the end, so filling a store is linear in its
   record count and keeps the records' order --- *)

let update t a b f = set t a b (f (Option.value (find t a b) ~default:empty_entry))

let route_link t (l : Link.t) =
  let update = update t l.src.source l.dst.source in
  match l.kind with
  | Link.Xref -> update (fun e -> { e with xref_links = l :: e.xref_links })
  | Link.Seq_similarity -> update (fun e -> { e with seq_links = l :: e.seq_links })
  | Link.Text_similarity | Link.Entity_mention ->
      update (fun e -> { e with text_links = l :: e.text_links })
  | Link.Duplicate -> update (fun e -> { e with dup_links = l :: e.dup_links })
  | Link.Shared_term ->
      t.onto_links <- l :: t.onto_links;
      t.onto_present <- true

let route_corr t (c : Xref_disc.correspondence) =
  update t c.src_source c.dst_source (fun e ->
      { e with correspondences = c :: e.correspondences })

let reverse_all t =
  Hashtbl.filter_map_inplace
    (fun _ e ->
      Some
        { e with
          xref_links = List.rev e.xref_links;
          correspondences = List.rev e.correspondences;
          seq_links = List.rev e.seq_links;
          text_links = List.rev e.text_links;
          dup_links = List.rev e.dup_links })
    t.tbl;
  t.onto_links <- List.rev t.onto_links

(* a parsed record, or a dropped line *)
let parsed dropped f = function Some x -> f x | None -> incr dropped

let load doc =
  let t = create () in
  let dropped = ref 0 in
  List.iter
    (fun line ->
      match Serial.fields line with
      | [ "" ] | [ "pairstore"; _ ] -> ()
      | [ "pair"; a; b; _; cands ] ->
          parsed dropped
            (fun n -> update t a b (fun e -> { e with dup_candidates = n }))
            (int_of_string_opt cands)
      | [ "onto"; _ ] -> t.onto_present <- true
      | "plink" :: fs -> parsed dropped (route_link t) (parse_link fs)
      | "pcorr" :: fs -> parsed dropped (route_corr t) (parse_corr fs)
      | _ -> incr dropped)
    (String.split_on_char '\n' doc);
  reverse_all t;
  (t, !dropped)

let seed_missing t meta =
  let dropped = ref 0 in
  let links = ref [] and corrs = ref [] in
  List.iter
    (fun line ->
      match Serial.fields line with
      | "link" :: fs ->
          parsed dropped (fun l -> links := l :: !links) (parse_link fs)
      | "corr" :: fs ->
          parsed dropped (fun c -> corrs := c :: !corrs) (parse_corr fs)
      | _ -> ())
    (String.split_on_char '\n' meta);
  (* one global dedup and sort leave each pair's lists in the order a
     per-pair dedup and sort would *)
  let seed = create () in
  List.iter (route_link seed) (Link.dedup (List.rev !links));
  List.iter (route_corr seed) (List.stable_sort compare_corr (List.rev !corrs));
  reverse_all seed;
  Hashtbl.iter (fun (a, b) e -> if not (mem t a b) then set t a b e) seed.tbl;
  if not t.onto_present then set_onto t seed.onto_links;
  !dropped
