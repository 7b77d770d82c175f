type corpus = {
  docs : (string, (string, int) Hashtbl.t) Hashtbl.t;  (* doc -> term counts *)
  df : (string, int) Hashtbl.t;  (* term -> document frequency *)
  mutable prep : prepared option;  (* cache, invalidated by corpus_add *)
}

(* The prepared corpus: one flat representation per document, built by
   [prepare_counts] from int term counts. Term ids order the terms
   lexicographically; each document carries its positive-weight terms as
   a sorted unboxed id array plus the parallel tf-idf weight array and a
   cached norm. The postings table inverts that: term id -> ascending doc
   indexes. This is what makes the all-pairs similarity join
   sub-quadratic — candidates come from shared postings, and scoring is a
   sorted-merge dot product with zero allocation per pair. *)
and prepared = {
  ids : string array;  (* doc index -> doc id *)
  group : int array;
      (* doc index -> group; two documents of one group are never a
         candidate pair *)
  run_end : int array;
      (* doc index -> the first index past the run of consecutive
         documents sharing its group: no pair it owns starts earlier *)
  doc_terms : int array array;  (* doc index -> sorted term ids, weight > 0 *)
  doc_weights : float array array;  (* parallel to [doc_terms] *)
  norms : float array;  (* doc index -> euclidean norm of the weight vector *)
  postings : int array array;
      (* term id -> ascending doc indexes. Only positive-weight terms
         are posted, and every such term has df < N, so a candidate
         shares at least one discriminating term with its query *)
  gen_terms : int array array;
      (* doc index -> term ids in candidate-generation order: descending
         weight (ties by ascending id), so the prefix filter can stop
         walking postings as soon as the rest of the vector is too light
         to reach the similarity threshold *)
  gen_suffix : float array array;
      (* parallel to [gen_terms]: [gen_suffix.(d).(k)] is the norm of the
         weights at generation positions k.. divided by the full norm —
         an upper bound (Cauchy-Schwarz) on the cosine of any pair whose
         shared terms all sit at positions >= k *)
}

type counts = { terms : int array; tfs : int array }

type vector = (string, float) Hashtbl.t

let corpus_create () =
  { docs = Hashtbl.create 64; df = Hashtbl.create 256; prep = None }

let term_counts text =
  let counts = Hashtbl.create 16 in
  List.iter
    (fun w ->
      let c = try Hashtbl.find counts w with Not_found -> 0 in
      Hashtbl.replace counts w (c + 1))
    (Tokenize.terms text);
  counts

let remove_df c counts =
  Hashtbl.iter
    (fun term _ ->
      match Hashtbl.find_opt c.df term with
      | Some 1 -> Hashtbl.remove c.df term
      | Some n -> Hashtbl.replace c.df term (n - 1)
      | None -> ())
    counts

let corpus_add c ~doc_id text =
  c.prep <- None;
  (match Hashtbl.find_opt c.docs doc_id with
  | Some old -> remove_df c old
  | None -> ());
  let counts = term_counts text in
  Hashtbl.replace c.docs doc_id counts;
  Hashtbl.iter
    (fun term _ ->
      let d = try Hashtbl.find c.df term with Not_found -> 0 in
      Hashtbl.replace c.df term (d + 1))
    counts

let corpus_size c = Hashtbl.length c.docs

let doc_ids c = Hashtbl.fold (fun id _ acc -> id :: acc) c.docs []

let idf c term =
  let n = float_of_int (max 1 (corpus_size c)) in
  match Hashtbl.find_opt c.df term with
  | Some df when df > 0 -> Float.max 0.0 (log (n /. float_of_int df))
  | Some _ | None -> log (n +. 1.0)

let vector_of_counts c counts =
  let v : vector = Hashtbl.create (Hashtbl.length counts) in
  Hashtbl.iter
    (fun term tf ->
      let w = float_of_int tf *. idf c term in
      if w > 0.0 then Hashtbl.replace v term w)
    counts;
  v

let vector_of_doc c doc_id =
  Option.map (vector_of_counts c) (Hashtbl.find_opt c.docs doc_id)

let norm v = sqrt (Hashtbl.fold (fun _ w acc -> acc +. (w *. w)) v 0.0)

let cosine a b =
  let na = norm a and nb = norm b in
  if na = 0.0 || nb = 0.0 then 0.0
  else begin
    let small, large = if Hashtbl.length a <= Hashtbl.length b then (a, b) else (b, a) in
    let dot = ref 0.0 in
    Hashtbl.iter
      (fun term w ->
        match Hashtbl.find_opt large term with
        | Some w' -> dot := !dot +. (w *. w')
        | None -> ())
      small;
    !dot /. (na *. nb)
  end

(* ------------------------------------------------------------------ *)
(* prepared corpus                                                     *)
(* ------------------------------------------------------------------ *)

(* HOT-PATH-BEGIN (tf-idf weighting and the candidate join): everything
   down to the END sentinel runs per document and per candidate pair of a
   corpus the delta text pass builds once per source pair. It works on
   int term ids and unboxed arrays only: no string is hashed, lowercased,
   tokenized or sorted here, and no per-pair table or count vector is
   built (a grep-gate in scripts/check.sh enforces it on this region). *)

let prepare_counts ~groups:group ~ids ~df docs =
  let n = Array.length docs in
  let nterms = Array.length df in
  let run_end = Array.make n n in
  for i = n - 2 downto 0 do
    run_end.(i) <- (if group.(i) = group.(i + 1) then run_end.(i + 1) else i + 1)
  done;
  (* the same idf expression (and below, the same w > 0 filter) as the
     ad-hoc vectors, so prepared scores match the naive ones exactly *)
  let nf = float_of_int (max 1 n) in
  let idf =
    Array.map
      (fun d -> if d <= 0 then 0.0 else Float.max 0.0 (log (nf /. float_of_int d)))
      df
  in
  let doc_terms = Array.make n [||] in
  let doc_weights = Array.make n [||] in
  let norms = Array.make n 0.0 in
  Array.iteri
    (fun i { terms; tfs } ->
      let weight x = float_of_int tfs.(x) *. idf.(terms.(x)) in
      let k = ref 0 in
      for x = 0 to Array.length terms - 1 do
        if weight x > 0.0 then incr k
      done;
      let ts = Array.make !k 0 and ws = Array.make !k 0.0 in
      let m = ref 0 in
      for x = 0 to Array.length terms - 1 do
        let w = weight x in
        if w > 0.0 then begin
          ts.(!m) <- terms.(x);
          ws.(!m) <- w;
          incr m
        end
      done;
      doc_terms.(i) <- ts;
      doc_weights.(i) <- ws;
      norms.(i) <- sqrt (Array.fold_left (fun acc w -> acc +. (w *. w)) 0.0 ws))
    docs;
  let gen_terms = Array.make n [||] in
  let gen_suffix = Array.make n [||] in
  Array.iteri
    (fun i ts ->
      let ws = doc_weights.(i) in
      let k = Array.length ts in
      let order = Array.init k Fun.id in
      Array.sort
        (fun a b ->
          match Float.compare ws.(b) ws.(a) with
          | 0 -> Int.compare ts.(a) ts.(b)
          | cmp -> cmp)
        order;
      let gts = Array.map (fun pos -> ts.(pos)) order in
      let suf = Array.make k 0.0 in
      let acc = ref 0.0 in
      for m = k - 1 downto 0 do
        let w = ws.(order.(m)) in
        acc := !acc +. (w *. w);
        suf.(m) <- (if norms.(i) = 0.0 then 0.0 else sqrt !acc /. norms.(i))
      done;
      gen_terms.(i) <- gts;
      gen_suffix.(i) <- suf)
    doc_terms;
  (* postings over positive-weight occurrences; doc indexes ascend because
     documents are visited in index order *)
  let sizes = Array.make nterms 0 in
  Array.iter (fun ts -> Array.iter (fun t -> sizes.(t) <- sizes.(t) + 1) ts) doc_terms;
  let postings = Array.init nterms (fun t -> Array.make sizes.(t) 0) in
  let fill = Array.make nterms 0 in
  Array.iteri
    (fun i ts ->
      Array.iter
        (fun t ->
          postings.(t).(fill.(t)) <- i;
          fill.(t) <- fill.(t) + 1)
        ts)
    doc_terms;
  { ids; group; run_end; doc_terms; doc_weights; norms; postings;
    gen_terms; gen_suffix }

(* fused sorted-merge dot product over the unboxed weight arrays *)
let dot_sorted ta wa tb wb =
  let la = Array.length ta and lb = Array.length tb in
  let s = ref 0.0 and ia = ref 0 and ib = ref 0 in
  while !ia < la && !ib < lb do
    let a = Array.unsafe_get ta !ia and b = Array.unsafe_get tb !ib in
    if a = b then begin
      s := !s +. (Array.unsafe_get wa !ia *. Array.unsafe_get wb !ib);
      incr ia;
      incr ib
    end
    else if a < b then incr ia
    else incr ib
  done;
  !s

let score_pair p i j =
  let nn = p.norms.(i) *. p.norms.(j) in
  if nn = 0.0 then 0.0
  else
    dot_sorted p.doc_terms.(i) p.doc_weights.(i) p.doc_terms.(j)
      p.doc_weights.(j)
    /. nn

(* the first position of ascending [a] holding a value >= [x] *)
let lower_bound a x =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get a mid < x then lo := mid + 1 else hi := mid
  done;
  !lo

(* Candidate generation for query doc [i]: walk the postings of its terms
   and collect every co-occurring doc of another group
   once. [seen] is a generation-stamped scratch array ([stamp] must be
   fresh per query), so no per-query table is allocated. Candidates come
   out sorted, making the emission order independent of postings
   traversal. Only docs past [i]'s run of same-group docs are collected
   — each pair is owned by its smaller index — and each postings walk
   starts there.

   Terms are walked in descending-weight order with a prefix filter: once
   the remaining suffix of [i]'s vector has norm fraction below [min_sim],
   the walk stops — a pair whose shared terms all sit in that suffix has
   cosine <= gen_suffix (Cauchy-Schwarz), so it cannot pass the threshold.
   Lossless for any [min_sim], and the ubiquitous low-idf terms (the ones
   with the longest postings) are exactly the ones that land in the
   pruned suffix.

   Candidates land in the caller-provided unboxed scratch array [buf]
   (capacity >= number of documents); the returned prefix [0, count) is
   sorted ascending. No per-query list or table allocation. *)
let candidates_into p ~min_sim ~seen ~stamp ~buf i =
  let from = p.run_end.(i) in
  if from >= Array.length p.ids then 0
  else begin
    let gts = p.gen_terms.(i) and suf = p.gen_suffix.(i) in
    let g = p.group.(i) in
    let k = Array.length gts in
    let count = ref 0 in
    let m = ref 0 in
    while !m < k && suf.(!m) >= min_sim do
      let post = p.postings.(gts.(!m)) in
      for x = lower_bound post from to Array.length post - 1 do
        let j = Array.unsafe_get post x in
        if p.group.(j) <> g && seen.(j) <> stamp then begin
          seen.(j) <- stamp;
          buf.(!count) <- j;
          incr count
        end
      done;
      incr m
    done;
    let sub = Array.sub buf 0 !count in
    Array.sort Int.compare sub;
    Array.blit sub 0 buf 0 !count;
    !count
  end

let similar_index_pairs_range p ~lo ~hi ~min_sim =
  let n = Array.length p.ids in
  let lo = max 0 lo and hi = min n hi in
  let seen = Array.make (max 1 n) (-1) in
  let buf = Array.make (max 1 n) 0 in
  let out = ref [] in
  for i = lo to hi - 1 do
    let count = candidates_into p ~min_sim ~seen ~stamp:i ~buf i in
    for k = 0 to count - 1 do
      let j = buf.(k) in
      let sim = score_pair p i j in
      if sim >= min_sim then out := (i, j, sim) :: !out
    done
  done;
  List.rev !out

(* HOT-PATH-END *)

(* a string corpus in the counts form: ascending doc ids, lexicographic
   term ids *)
let build_prepared c =
  let ids = Array.of_list (List.sort String.compare (doc_ids c)) in
  let vocab =
    Hashtbl.fold (fun t _ acc -> t :: acc) c.df []
    |> List.sort String.compare |> Array.of_list
  in
  let term_id : (string, int) Hashtbl.t =
    Hashtbl.create (2 * max 1 (Array.length vocab))
  in
  Array.iteri (fun i t -> Hashtbl.replace term_id t i) vocab;
  let df = Array.map (Hashtbl.find c.df) vocab in
  let docs =
    Array.map
      (fun id ->
        let pairs =
          Hashtbl.fold
            (fun term tf acc -> (Hashtbl.find term_id term, tf) :: acc)
            (Hashtbl.find c.docs id) []
          |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
        in
        { terms = Array.of_list (List.map fst pairs);
          tfs = Array.of_list (List.map snd pairs) })
      ids
  in
  prepare_counts ~groups:(Array.init (Array.length ids) Fun.id) ~ids ~df docs

let prepare c =
  match c.prep with
  | Some p -> p
  | None ->
      let p = build_prepared c in
      c.prep <- Some p;
      p

let prepared_docs p = Array.length p.ids

let similar_pairs_range p ~lo ~hi ~min_sim =
  List.map
    (fun (i, j, sim) -> (p.ids.(i), p.ids.(j), sim))
    (similar_index_pairs_range p ~lo ~hi ~min_sim)
