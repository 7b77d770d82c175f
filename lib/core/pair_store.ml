open Aladin_links
module Serial = Aladin_store.Serial

type entry = {
  links : Link.t list;
  correspondences : Xref_disc.correspondence list;
  dup_candidates : int;
}

let empty_entry = { links = []; correspondences = []; dup_candidates = 0 }

type t = { tbl : (string * string, entry) Hashtbl.t }

let create () = { tbl = Hashtbl.create 32 }

let canon a b = if String.compare a b <= 0 then (a, b) else (b, a)

let find t a b = Hashtbl.find_opt t.tbl (canon a b)

let set t a b e = Hashtbl.replace t.tbl (canon a b) e

let mem t a b = Hashtbl.mem t.tbl (canon a b)

let pairs t =
  Hashtbl.fold (fun k e acc -> (k, e) :: acc) t.tbl []
  |> List.sort (fun (ka, _) (kb, _) -> compare ka kb)

let pair_keys t = List.map fst (pairs t)

(* every list the store holds is in [Link.dedup]'s form: each pass ends
   in [Link.dedup], a relink merges a pair's kept and fresh links with
   [Link.union], [save] writes each list in its order and [load] puts
   each back in form. [Link.union] checks each list in one pass and
   merges them. *)
let all_links t = Link.union (List.map (fun (_, e) -> e.links) (pairs t))

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
     plink  ss sr sa ds dr da kind confidence evidence   (xN, any kind)
     pcorr  ss sr sa ds dr da matches frac encoded       (xN)

   The file is the store's only record of its links, so the reader
   salvages record by record: each link and correspondence goes to the
   canonical pair of its own endpoints' sources, and a [pair] header is
   read only for its dup-candidate count. A damaged line loses that
   line alone. A document written before a pair held one list groups
   each pair's links by the pass that found them and puts the
   shared-term links after an [onto <n-items>] header; the same routing
   reads it, and the header is skipped.

   A metadata.txt written before the links moved here carries the same
   records tagged [link] and [corr]; [seed_missing] reads those with
   the same field parsers. *)

let version = 1

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
        ( Link.kind_of_name kind,
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
  let items e = List.length e.links + List.length e.correspondences in
  let total = List.fold_left (fun n (_, e) -> n + items e) 0 pairs in
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
      List.iter (add_link buf) e.links;
      List.iter (add_corr buf) e.correspondences)
    pairs;
  Buffer.contents buf

(* --- routing, shared by [load] and [seed_missing]: each record is
   consed onto its pair's accumulator, created once per pair, and
   [finish] builds each entry once, reversing its lists and putting the
   links in [Link.dedup]'s form, so filling a store is linear in its
   record count. [save] writes the records grouped by pair, so the last
   pair's accumulator is found by comparing two strings, without hashing
   the pair (which would cost about a third of a load) --- *)

type acc = {
  mutable links_acc : Link.t list;
  mutable corrs : Xref_disc.correspondence list;
  mutable cands : int;
}

type router = {
  accs : (string * string, acc) Hashtbl.t;
  mutable last : (string * string * acc) option;
}

let router () = { accs = Hashtbl.create 32; last = None }

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
            let acc = { links_acc = []; corrs = []; cands = 0 } in
            Hashtbl.add r.accs key acc;
            acc
      in
      r.last <- Some (a, b, acc);
      acc

let route_link r (l : Link.t) =
  let acc = acc_of r l.src.source l.dst.source in
  acc.links_acc <- l :: acc.links_acc

let route_corr r (c : Xref_disc.correspondence) =
  let acc = acc_of r c.src_source c.dst_source in
  acc.corrs <- c :: acc.corrs

(* a store holding exactly what [r] routed; a list already in form (all
   a save writes) costs one check *)
let finish r =
  let t = create () in
  Hashtbl.iter
    (fun key acc ->
      Hashtbl.replace t.tbl key
        { links = Link.union [ List.rev acc.links_acc ];
          correspondences = List.rev acc.corrs;
          dup_candidates = acc.cands })
    r.accs;
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
      | [ "" ] | [ "pairstore"; _ ] | [ "onto"; _ ] -> ()
      | [ "pair"; a; b; _; cands ] ->
          parsed dropped
            (fun n -> (acc_of r a b).cands <- n)
            (int_of_string_opt cands)
      | "plink" :: fs -> parsed dropped (route_link r) (parse_link fs)
      | "pcorr" :: fs -> parsed dropped (route_corr r) (parse_corr fs)
      | _ -> incr dropped)
    doc;
  (finish r, !dropped)

let seed_missing t meta =
  let r = router () in
  let dropped = ref 0 and corrs = ref [] in
  iter_lines
    (function
      | "link" :: fs -> parsed dropped (route_link r) (parse_link fs)
      | "corr" :: fs ->
          parsed dropped (fun c -> corrs := c :: !corrs) (parse_corr fs)
      | _ -> ())
    meta;
  (* one stable sort leaves each pair's correspondences in the order a
     per-pair sort would *)
  List.iter (route_corr r) (List.stable_sort compare_corr (List.rev !corrs));
  Hashtbl.iter (fun (a, b) e -> if not (mem t a b) then set t a b e) (finish r).tbl;
  !dropped
