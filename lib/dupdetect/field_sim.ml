module Tx = Aladin_text

type metric = Exact | Edit | Token | Sequence_metric

let is_sequence s =
  String.length s >= 30
  && String.for_all
       (fun c ->
         let c = Char.uppercase_ascii c in
         (c >= 'A' && c <= 'Z') || c = ' ' || c = '\n')
       s
  &&
  (* low character diversity is the cheap tell of a sequence; past the
     check above only letters, spaces and newlines are left, so the
     distinct letters fit in a 26-bit mask *)
  let seen = ref 0 in
  for i = 0 to String.length s - 1 do
    match s.[i] with
    | ' ' | '\n' -> ()
    | c ->
        seen := !seen lor (1 lsl (Char.code (Char.uppercase_ascii c) - Char.code 'A'))
  done;
  let rec bits n = if n = 0 then 0 else 1 + bits (n land (n - 1)) in
  bits !seen <= 21

let is_sequence_value = is_sequence

let choose_metric a b =
  if a = b then Exact
  else if is_sequence a && is_sequence b then Sequence_metric
  else if String.length a >= 25 || String.length b >= 25 then Token
  else Edit

(* a value, normalized once: everything the per-pair metric needs that
   does not depend on the other value of the pair *)
type prepared = {
  empty : bool;  (* trimmed value is empty *)
  lc : string;  (* lowercased trimmed value *)
  is_seq : bool;  (* is_sequence lc *)
  bigrams : int array;
      (* is_seq only: lc's byte bigrams as sorted int codes, the multiset
         Strdist.dice_bigrams counts; [||] otherwise *)
  long : bool;  (* String.length lc >= 25: the Token-metric trigger *)
  terms : string list;  (* sorted unique Tokenize.terms of lc *)
  nterms : int;  (* List.length terms *)
}

(* s's byte bigrams as ints (first byte high), sorted by a two-pass LSD
   radix sort: linear, where a comparison sort cost more than everything
   else [prepare] does to a sequence *)
let bigram_codes s =
  let n = max 0 (String.length s - 1) in
  let codes =
    Array.init n (fun i -> (Char.code s.[i] lsl 8) lor Char.code s.[i + 1])
  in
  let tmp = Array.make n 0 in
  let pass shift src dst =
    let start = Array.make 257 0 in
    for i = 0 to n - 1 do
      let b = (src.(i) lsr shift) land 255 in
      start.(b + 1) <- start.(b + 1) + 1
    done;
    for b = 1 to 256 do
      start.(b) <- start.(b) + start.(b - 1)
    done;
    for i = 0 to n - 1 do
      let b = (src.(i) lsr shift) land 255 in
      dst.(start.(b)) <- src.(i);
      start.(b) <- start.(b) + 1
    done
  in
  pass 0 codes tmp;
  pass 8 tmp codes;
  codes

(* an already-lowercase value comes back as itself, so a caller that
   keeps its own lowercased copy of the value does not get a second one *)
let lowercase s =
  if String.exists (fun c -> c >= 'A' && c <= 'Z') s then String.lowercase_ascii s
  else s

let prepare raw =
  let lc = String.trim (lowercase raw) in
  let is_seq = is_sequence lc in
  let terms = List.sort_uniq String.compare (Tx.Tokenize.terms lc) in
  {
    empty = lc = "";
    lc;
    is_seq;
    bigrams = (if is_seq then bigram_codes lc else [||]);
    long = String.length lc >= 25;
    terms;
    nterms = List.length terms;
  }

(* intersection size of two sorted unique lists *)
let rec inter_count acc a b =
  match (a, b) with
  | [], _ | _, [] -> acc
  | x :: xs, y :: ys ->
      let c = String.compare x y in
      if c = 0 then inter_count (acc + 1) xs ys
      else if c < 0 then inter_count acc xs b
      else inter_count acc a ys

(* HOT-PATH-BEGIN: per-candidate-pair code. Runs once per candidate pair
   inside the duplicate-detection fan-out, so it must not re-normalize or
   re-tokenize values — that work happens once, in [prepare] /
   [name_tokens] above (enforced by a grep-gate in scripts/check.sh). *)

(* Jaccard of precomputed sorted unique term lists; equals
   [Tx.Tokenize.jaccard a.lc b.lc] *)
let jaccard_prepared a b =
  let na = a.nterms and nb = b.nterms in
  if na = 0 && nb = 0 then 1.0
  else begin
    let inter = inter_count 0 a.terms b.terms in
    float_of_int inter /. float_of_int (na + nb - inter)
  end

(* Dice over two sorted bigram-code arrays: a sorted merge counts the
   multiset intersection. Equals Strdist's hashtable-built bigram Dice of
   a.lc and b.lc, bit for bit. *)
let dice_prepared (a : int array) (b : int array) =
  let na = Array.length a and nb = Array.length b in
  if na = 0 && nb = 0 then 1.0
  else if na = 0 || nb = 0 then 0.0
  else begin
    let i = ref 0 and j = ref 0 and inter = ref 0 in
    while !i < na && !j < nb do
      let x = Array.unsafe_get a !i and y = Array.unsafe_get b !j in
      if x = y then begin
        incr inter;
        incr i;
        incr j
      end
      else if x < y then incr i
      else incr j
    done;
    2.0 *. float_of_int !inter /. float_of_int (na + nb)
  end

(* The similarity, except that a token-metric score known to be below
   [floor] may come back as an upper bound that is also below it: the
   Jaccard is at most the smaller term count over the larger, and
   rounding is monotone, so the term lists are merged only when that
   quotient reaches [floor]. *)
let similarity_above ~floor a b =
  if a.empty && b.empty then 1.0
  else if a.empty || b.empty then 0.0
  else if a.lc = b.lc then 1.0 (* Exact *)
  else if a.is_seq && b.is_seq then dice_prepared a.bigrams b.bigrams
  else if a.long || b.long then begin
    let lo = if a.nterms <= b.nterms then a.nterms else b.nterms
    and hi = if a.nterms >= b.nterms then a.nterms else b.nterms in
    let bound = if hi = 0 then 1.0 else float_of_int lo /. float_of_int hi in
    if bound < floor then bound else jaccard_prepared a b
  end
  else Tx.Strdist.jaro_winkler a.lc b.lc

let similarity_prepared a b = similarity_above ~floor:0.0 a b

let similarity_at_least a b t = similarity_above ~floor:t a b >= t

let name_affinity_tokens ta tb =
  if ta = [] || tb = [] then 0.0
  else begin
    let inter = inter_count 0 ta tb in
    let union = List.length ta + List.length tb - inter in
    if union = 0 then 0.0
    else float_of_int inter /. float_of_int union
  end

(* HOT-PATH-END *)

let similarity a b = similarity_prepared (prepare a) (prepare b)

(* deduplicated: "gene_gene" vs "gene" must score 1.0, not overcount the
   repeated token into an affinity above 1 *)
let name_tokens s =
  String.split_on_char '_' (String.lowercase_ascii s)
  |> List.concat_map (String.split_on_char '.')
  |> List.filter (fun t -> t <> "" && t <> "id")
  |> List.sort_uniq String.compare

let name_affinity a b = name_affinity_tokens (name_tokens a) (name_tokens b)
