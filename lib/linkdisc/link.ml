type kind =
  | Xref
  | Seq_similarity
  | Text_similarity
  | Shared_term
  | Entity_mention
  | Duplicate

let kinds =
  [ Xref; Seq_similarity; Text_similarity; Shared_term; Entity_mention; Duplicate ]

let kind_name = function
  | Xref -> "xref"
  | Seq_similarity -> "seq"
  | Text_similarity -> "text"
  | Shared_term -> "shared-term"
  | Entity_mention -> "mention"
  | Duplicate -> "duplicate"

let kind_of_name name =
  List.find_opt (fun k -> String.equal (kind_name k) name) kinds

let kind_rank = function
  | Xref -> 0
  | Seq_similarity -> 1
  | Text_similarity -> 2
  | Shared_term -> 3
  | Entity_mention -> 4
  | Duplicate -> 5

type t = {
  src : Objref.t;
  dst : Objref.t;
  kind : kind;
  confidence : float;
  evidence : string;
}

let make ~src ~dst ~kind ~confidence ~evidence =
  { src; dst; kind; confidence; evidence }

let normalized t =
  match t.kind with
  | Xref -> t
  | Seq_similarity | Text_similarity | Shared_term | Entity_mention | Duplicate ->
      if Objref.compare t.src t.dst <= 0 then t
      else { t with src = t.dst; dst = t.src }

let compare_links a b =
  match Objref.compare a.src b.src with
  | 0 -> (
      match Objref.compare a.dst b.dst with
      | 0 -> Int.compare (kind_rank a.kind) (kind_rank b.kind)
      | c -> c)
  | c -> c

(* of two links with equal endpoints and kind, the one [dedup] keeps:
   the higher confidence, then the smaller evidence, so the kept
   representative does not depend on traversal order (sequential and
   parallel runs must agree) *)
let compare_preference a b =
  match Float.compare b.confidence a.confidence with
  | 0 -> String.compare a.evidence b.evidence
  | c -> c

(* a [compare_links]-sorted list with each run of equal links ordered
   by preference -> the first of each run *)
let first_of_runs sorted =
  List.fold_left
    (fun acc l ->
      match acc with
      | prev :: _ when compare_links prev l = 0 -> acc
      | _ -> l :: acc)
    [] sorted
  |> List.rev

let dedup links =
  List.rev_map normalized links
  |> List.sort (fun a b ->
         match compare_links a b with 0 -> compare_preference a b | c -> c)
  |> first_of_runs

let is_normalized l =
  match l.kind with
  | Xref -> true
  | Seq_similarity | Text_similarity | Shared_term | Entity_mention | Duplicate ->
      Objref.compare l.src l.dst <= 0

(* [l] is in [dedup]'s form: normalized, and strictly after its
   predecessor in [compare_links] order. One pass. *)
let rec in_dedup_order = function
  | a :: (b :: _ as rest) ->
      is_normalized a && compare_links a b < 0 && in_dedup_order rest
  | [ a ] -> is_normalized a
  | [] -> true

let merge2 xs ys =
  let rec go acc xs ys =
    match (xs, ys) with
    | [], rest | rest, [] -> List.rev_append acc rest
    | x :: xs', y :: ys' -> (
        match compare_links x y with
        | 0 ->
            go ((if compare_preference x y <= 0 then x else y) :: acc) xs' ys'
        | c when c < 0 -> go (x :: acc) xs' ys
        | _ -> go (y :: acc) xs ys')
  in
  go [] xs ys

let union lists =
  let rec pass = function
    | a :: b :: rest -> merge2 a b :: pass rest
    | short -> short
  in
  let rec merge_all = function
    | [] -> []
    | [ l ] -> l
    | ls -> merge_all (pass ls)
  in
  merge_all
    (List.filter_map
       (function
         | [] -> None
         | l when in_dedup_order l -> Some l
         | l -> Some (dedup l))
       lists)

let pp ppf t =
  Format.fprintf ppf "%a --%s(%.2f)--> %a [%s]" Objref.pp t.src
    (kind_name t.kind) t.confidence Objref.pp t.dst t.evidence
