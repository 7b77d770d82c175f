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

(* every list the store holds is in [Link.dedup]'s form: each pass ends
   in [Link.dedup] (a filter of a deduplicated list keeps the form), and
   [save] writes each list in its order, so [load] reads it back in
   form. [Link.union] checks each list in one pass and merges them. *)
let all_links t =
  Link.union
    (List.fold_left
       (fun acc (_, e) ->
         e.xref_links :: e.seq_links :: e.text_links :: e.dup_links :: acc)
       [ t.onto_links ] (pairs t))

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

let add_link buf (l : Link.t) =
  Serial.add_record buf
    [ "plink"; l.src.source; l.src.relation; l.src.accession; l.dst.source;
      l.dst.relation; l.dst.accession; Link.kind_name l.kind;
      Serial.float_to_string l.confidence; l.evidence ];
  Buffer.add_char buf '\n'

let add_corr buf (c : Xref_disc.correspondence) =
  Serial.add_record buf
    [ "pcorr"; c.src_source; c.src_relation; c.src_attribute; c.dst_source;
      c.dst_relation; c.dst_attribute; string_of_int c.matches;
      Serial.float_to_string c.match_frac; string_of_bool c.encoded ];
  Buffer.add_char buf '\n'

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

let save t =
  let pairs = pairs t in
  let items e =
    List.length e.xref_links + List.length e.correspondences
    + List.length e.seq_links + List.length e.text_links
    + List.length e.dup_links
  in
  let total =
    List.fold_left (fun n (_, e) -> n + items e) (List.length t.onto_links) pairs
  in
  let buf = Buffer.create (4096 + (128 * total)) in
  let header fs =
    Serial.add_record buf fs;
    Buffer.add_char buf '\n'
  in
  header [ "pairstore"; string_of_int version ];
  List.iter
    (fun ((a, b), e) ->
      header
        [ "pair"; a; b; string_of_int (items e); string_of_int e.dup_candidates ];
      List.iter (add_link buf) e.xref_links;
      List.iter (add_corr buf) e.correspondences;
      List.iter (add_link buf) e.seq_links;
      List.iter (add_link buf) e.text_links;
      List.iter (add_link buf) e.dup_links)
    pairs;
  header [ "onto"; string_of_int (List.length t.onto_links) ];
  List.iter (add_link buf) t.onto_links;
  Buffer.contents buf

(* --- routing, shared by [load] and [seed_missing]: each record is
   consed onto its pair's accumulator, created once per pair, and
   [finish] builds each entry once, reversing its lists, so filling a
   store is linear in its record count and keeps the records' order.
   [save] writes the records grouped by pair, so the last pair's
   accumulator is found by comparing two strings, without hashing the
   pair (which would cost about a third of a load) --- *)

type acc = {
  mutable xrefs : Link.t list;
  mutable corrs : Xref_disc.correspondence list;
  mutable seqs : Link.t list;
  mutable texts : Link.t list;
  mutable dups : Link.t list;
  mutable cands : int;
}

type router = {
  accs : (string * string, acc) Hashtbl.t;
  mutable onto_acc : Link.t list;
  mutable onto_seen : bool;
  mutable last : (string * string * acc) option;
}

let router () =
  { accs = Hashtbl.create 32; onto_acc = []; onto_seen = false; last = None }

let acc_of r a b =
  match r.last with
  | Some (la, lb, acc)
    when (String.equal a la && String.equal b lb)
         || (String.equal a lb && String.equal b la) ->
      acc
  | Some _ | None ->
      let key = canon a b in
      let acc =
        match Hashtbl.find_opt r.accs key with
        | Some acc -> acc
        | None ->
            let acc =
              { xrefs = []; corrs = []; seqs = []; texts = []; dups = [];
                cands = 0 }
            in
            Hashtbl.add r.accs key acc;
            acc
      in
      r.last <- Some (a, b, acc);
      acc

let route_link r (l : Link.t) =
  let add f = f (acc_of r l.src.source l.dst.source) in
  match l.kind with
  | Link.Xref -> add (fun acc -> acc.xrefs <- l :: acc.xrefs)
  | Link.Seq_similarity -> add (fun acc -> acc.seqs <- l :: acc.seqs)
  | Link.Text_similarity | Link.Entity_mention ->
      add (fun acc -> acc.texts <- l :: acc.texts)
  | Link.Duplicate -> add (fun acc -> acc.dups <- l :: acc.dups)
  | Link.Shared_term ->
      r.onto_acc <- l :: r.onto_acc;
      r.onto_seen <- true

let route_corr r (c : Xref_disc.correspondence) =
  let acc = acc_of r c.src_source c.dst_source in
  acc.corrs <- c :: acc.corrs

(* a store holding exactly what [r] routed *)
let finish r =
  let t = create () in
  Hashtbl.iter
    (fun key acc ->
      Hashtbl.replace t.tbl key
        { xref_links = List.rev acc.xrefs;
          correspondences = List.rev acc.corrs;
          seq_links = List.rev acc.seqs;
          text_links = List.rev acc.texts;
          dup_links = List.rev acc.dups;
          dup_candidates = acc.cands })
    r.accs;
  t.onto_links <- List.rev r.onto_acc;
  t.onto_present <- r.onto_seen;
  t

(* a parsed record, or a dropped line *)
let parsed dropped f = function Some x -> f x | None -> incr dropped

(* [f] on the fields of each line of [doc], in order; the lines are
   what [String.split_on_char '\n'] gives *)
let iter_lines f doc =
  let n = String.length doc in
  let rec go pos =
    let e =
      match String.index_from_opt doc pos '\n' with Some i -> i | None -> n
    in
    f (Serial.fields_sub doc ~pos ~len:(e - pos));
    if e < n then go (e + 1)
  in
  go 0

let load doc =
  let r = router () in
  let dropped = ref 0 in
  iter_lines
    (function
      | [ "" ] | [ "pairstore"; _ ] -> ()
      | [ "pair"; a; b; _; cands ] ->
          parsed dropped
            (fun n -> (acc_of r a b).cands <- n)
            (int_of_string_opt cands)
      | [ "onto"; _ ] -> r.onto_seen <- true
      | "plink" :: fs -> parsed dropped (route_link r) (parse_link fs)
      | "pcorr" :: fs -> parsed dropped (route_corr r) (parse_corr fs)
      | _ -> incr dropped)
    doc;
  (finish r, !dropped)

let seed_missing t meta =
  let dropped = ref 0 in
  let links = ref [] and corrs = ref [] in
  iter_lines
    (function
      | "link" :: fs ->
          parsed dropped (fun l -> links := l :: !links) (parse_link fs)
      | "corr" :: fs ->
          parsed dropped (fun c -> corrs := c :: !corrs) (parse_corr fs)
      | _ -> ())
    meta;
  (* one global dedup and sort leave each pair's lists in the order a
     per-pair dedup and sort would *)
  let r = router () in
  List.iter (route_link r) (Link.dedup (List.rev !links));
  List.iter (route_corr r) (List.stable_sort compare_corr (List.rev !corrs));
  let seed = finish r in
  Hashtbl.iter (fun (a, b) e -> if not (mem t a b) then set t a b e) seed.tbl;
  if not t.onto_present then set_onto t seed.onto_links;
  !dropped
