open Aladin_links
module Serial = Aladin_metadata.Serial

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

   A pair's links are routed back to their pass list by link kind, so a
   group is exactly [n-items] item lines after its header. Any group
   that is short, over-long or unparseable is dropped whole (the caller
   re-seeds it from the metadata repository). *)

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

let parse_link = function
  | [ "plink"; ss; sr; sa; ds; dr; da; kind; conf; evidence ] -> (
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
  | [ "pcorr"; ss; sr; sa; ds; dr; da; matches; frac; encoded ] -> (
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

(* route parsed items, in save order, into their lists: each list is
   accumulated in reverse and reversed once, so a group loads in time
   linear in its item count *)
let entry_of_items items =
  let x = ref [] and c = ref [] and sq = ref [] and tx = ref [] and d = ref [] in
  List.iter
    (function
      | `Link (l : Link.t) -> (
          match l.kind with
          | Link.Xref -> x := l :: !x
          | Link.Seq_similarity -> sq := l :: !sq
          | Link.Text_similarity | Link.Entity_mention -> tx := l :: !tx
          | Link.Duplicate -> d := l :: !d
          | Link.Shared_term -> ())
      | `Corr corr -> c := corr :: !c)
    items;
  { xref_links = List.rev !x; correspondences = List.rev !c;
    seq_links = List.rev !sq; text_links = List.rev !tx;
    dup_links = List.rev !d; dup_candidates = 0 }

let load doc =
  let t = create () in
  let dropped = ref 0 in
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' doc) in
  (* read [n] item lines; None (plus the unconsumed rest) when a line is
     missing or is not an item — the failing line may be the next header,
     so scanning resumes there *)
  let take_items n lines =
    let rec go acc n = function
      | rest when n = 0 -> Some (List.rev acc, rest)
      | [] -> None
      | line :: rest -> (
          let fields = Serial.fields line in
          match parse_link fields with
          | Some l -> go (`Link l :: acc) (n - 1) rest
          | None -> (
              match parse_corr fields with
              | Some c -> go (`Corr c :: acc) (n - 1) rest
              | None -> None))
    in
    go [] n lines
  in
  let rec scan = function
    | [] -> ()
    | line :: rest -> (
        match Serial.fields line with
        | [ "pairstore"; _ ] -> scan rest
        | [ "pair"; a; b; n; cands ] -> (
            match (int_of_string_opt n, int_of_string_opt cands) with
            | Some n, Some cands when n >= 0 -> (
                match take_items n rest with
                | Some (items, rest) ->
                    let e = { (entry_of_items items) with dup_candidates = cands } in
                    set t a b e;
                    scan rest
                | None ->
                    incr dropped;
                    scan rest)
            | _ ->
                incr dropped;
                scan rest)
        | [ "onto"; n ] -> (
            match int_of_string_opt n with
            | Some n when n >= 0 -> (
                match take_items n rest with
                | Some (items, rest) ->
                    let links =
                      List.filter_map
                        (function `Link l -> Some l | `Corr _ -> None)
                        items
                    in
                    set_onto t links;
                    scan rest
                | None ->
                    incr dropped;
                    scan rest)
            | _ ->
                incr dropped;
                scan rest)
        | _ ->
            incr dropped;
            scan rest)
  in
  scan lines;
  (t, !dropped)

let seed_missing t ~links ~correspondences =
  let groups : (string * string, Link.t list) Hashtbl.t = Hashtbl.create 32 in
  let onto_acc = ref [] in
  List.iter
    (fun (l : Link.t) ->
      match l.kind with
      | Link.Shared_term -> onto_acc := l :: !onto_acc
      | _ ->
          let key = canon l.src.source l.dst.source in
          Hashtbl.replace groups key
            (l :: (try Hashtbl.find groups key with Not_found -> [])))
    links;
  let corr_groups : (string * string, Xref_disc.correspondence list) Hashtbl.t =
    Hashtbl.create 32
  in
  List.iter
    (fun (c : Xref_disc.correspondence) ->
      let key = canon c.src_source c.dst_source in
      Hashtbl.replace corr_groups key
        (c :: (try Hashtbl.find corr_groups key with Not_found -> [])))
    correspondences;
  let all_keys =
    List.sort_uniq compare
      (Hashtbl.fold (fun k _ acc -> k :: acc) groups []
      @ Hashtbl.fold (fun k _ acc -> k :: acc) corr_groups [])
  in
  List.iter
    (fun (a, b) ->
      if not (mem t a b) then begin
        let ls =
          try List.rev (Hashtbl.find groups (a, b)) with Not_found -> []
        in
        let cs =
          try
            List.sort compare_corr (List.rev (Hashtbl.find corr_groups (a, b)))
          with Not_found -> []
        in
        let e =
          { (entry_of_items (List.map (fun l -> `Link l) (Link.dedup ls))) with
            correspondences = cs }
        in
        set t a b e
      end)
    all_keys;
  if not t.onto_present then set_onto t (Link.dedup !onto_acc)
