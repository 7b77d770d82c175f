let levenshtein a b =
  let n = String.length a and m = String.length b in
  if n = 0 then m
  else if m = 0 then n
  else begin
    let prev = Array.init (m + 1) (fun j -> j) in
    let cur = Array.make (m + 1) 0 in
    for i = 1 to n do
      cur.(0) <- i;
      for j = 1 to m do
        let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
        cur.(j) <- min (min (cur.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
      done;
      Array.blit cur 0 prev 0 (m + 1)
    done;
    prev.(m)
  end

let imax (a : int) b = if a >= b then a else b

let imin (a : int) b = if a <= b then a else b

let jaro_score matches transpositions n m =
  let mf = float_of_int matches in
  let t = float_of_int (transpositions / 2) in
  (mf /. float_of_int n +. mf /. float_of_int m +. ((mf -. t) /. mf)) /. 3.0

(* Jaro runs once per candidate field pair inside the duplicate-detection
   fan-out, where per-call allocation turns into cross-domain minor-GC
   stalls. Up to [mask_chars] characters a side, the matched flags live in
   two int bitmasks (an OCaml int has 63 bits); that covers every
   duplicate-detection call, whose Edit metric only runs on values under
   25 characters. Longer strings take fresh byte flags in [jaro_bytes];
   both scans are the same greedy window match. *)
let mask_chars = 62

let jaro_masks a b n m window =
  let am = ref 0 and bm = ref 0 and matches = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get a i in
    let hi = imin (m - 1) (i + window) in
    let j = ref (imax 0 (i - window)) in
    while !j <= hi do
      if !bm land (1 lsl !j) = 0 && String.unsafe_get b !j = c then begin
        bm := !bm lor (1 lsl !j);
        am := !am lor (1 lsl i);
        incr matches;
        j := hi + 1
      end
      else incr j
    done
  done;
  if !matches = 0 then 0.0
  else begin
    let transpositions = ref 0 and k = ref 0 in
    for i = 0 to n - 1 do
      if !am land (1 lsl i) <> 0 then begin
        while !bm land (1 lsl !k) = 0 do incr k done;
        if String.unsafe_get a i <> String.unsafe_get b !k then
          incr transpositions;
        incr k
      end
    done;
    jaro_score !matches !transpositions n m
  end

let jaro_bytes a b n m window =
  let af = Bytes.make n '\000' and bf = Bytes.make m '\000' in
  let matches = ref 0 in
  for i = 0 to n - 1 do
    let hi = imin (m - 1) (i + window) in
    let j = ref (imax 0 (i - window)) in
    while !j <= hi do
      if Bytes.get bf !j = '\000' && a.[i] = b.[!j] then begin
        Bytes.set bf !j '\001';
        Bytes.set af i '\001';
        incr matches;
        j := hi + 1
      end
      else incr j
    done
  done;
  if !matches = 0 then 0.0
  else begin
    let transpositions = ref 0 and k = ref 0 in
    for i = 0 to n - 1 do
      if Bytes.get af i <> '\000' then begin
        while Bytes.get bf !k = '\000' do incr k done;
        if a.[i] <> b.[!k] then incr transpositions;
        incr k
      end
    done;
    jaro_score !matches !transpositions n m
  end

let jaro a b =
  let n = String.length a and m = String.length b in
  if n = 0 && m = 0 then 1.0
  else if n = 0 || m = 0 then 0.0
  else begin
    let window = imax 0 ((imax n m / 2) - 1) in
    if n <= mask_chars && m <= mask_chars then jaro_masks a b n m window
    else jaro_bytes a b n m window
  end

let jaro_winkler a b =
  let j = jaro a b in
  let max_prefix = 4 in
  let limit = imin max_prefix (imin (String.length a) (String.length b)) in
  let p = ref 0 in
  while !p < limit && a.[!p] = b.[!p] do incr p done;
  j +. (float_of_int !p *. 0.1 *. (1.0 -. j))

let bigram_multiset s =
  let tbl = Hashtbl.create 16 in
  for i = 0 to String.length s - 2 do
    let bg = String.sub s i 2 in
    let c = try Hashtbl.find tbl bg with Not_found -> 0 in
    Hashtbl.replace tbl bg (c + 1)
  done;
  tbl

let dice_bigrams a b =
  let ta = bigram_multiset (String.lowercase_ascii a) in
  let tb = bigram_multiset (String.lowercase_ascii b) in
  let total ta = Hashtbl.fold (fun _ c acc -> acc + c) ta 0 in
  let na = total ta and nb = total tb in
  if na = 0 && nb = 0 then 1.0
  else if na = 0 || nb = 0 then 0.0
  else begin
    let inter = ref 0 in
    Hashtbl.iter
      (fun bg ca ->
        match Hashtbl.find_opt tb bg with
        | Some cb -> inter := !inter + min ca cb
        | None -> ())
      ta;
    2.0 *. float_of_int !inter /. float_of_int (na + nb)
  end

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  if n = 0 then true
  else if n > h then false
  else begin
    let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
    at 0
  end
