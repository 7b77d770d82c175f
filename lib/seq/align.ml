type result = {
  score : int;
  query_aligned : string;
  subject_aligned : string;
  identity : float;
  query_span : int * int;
  subject_span : int * int;
}

type op = Stop | Diag | Up | Left

let identity_of qa sa =
  let n = String.length qa in
  if n = 0 then 0.0
  else begin
    let same = ref 0 in
    for i = 0 to n - 1 do
      if qa.[i] = sa.[i] && qa.[i] <> '-' then incr same
    done;
    float_of_int !same /. float_of_int n
  end

(* Smith-Waterman with traceback: cells clamp at 0 and the traceback
   starts at the best cell. *)
let local ?(matrix = Subst_matrix.nucleotide) q s =
  let gap = Subst_matrix.gap_open matrix in
  let n = String.length q and m = String.length s in
  let score = Array.make_matrix (n + 1) (m + 1) 0 in
  let trace = Array.make_matrix (n + 1) (m + 1) Stop in
  let best = ref 0 and best_i = ref 0 and best_j = ref 0 in
  for i = 1 to n do
    for j = 1 to m do
      let d = score.(i - 1).(j - 1) + Subst_matrix.score matrix q.[i - 1] s.[j - 1] in
      let u = score.(i - 1).(j) + gap in
      let l = score.(i).(j - 1) + gap in
      let v, t =
        if d >= u && d >= l then (d, Diag)
        else if u >= l then (u, Up)
        else (l, Left)
      in
      let v, t = if v < 0 then (0, Stop) else (v, t) in
      score.(i).(j) <- v;
      trace.(i).(j) <- t;
      if v > !best then begin
        best := v;
        best_i := i;
        best_j := j
      end
    done
  done;
  let qa = Buffer.create 32 and sa = Buffer.create 32 in
  let rec back i j =
    match trace.(i).(j) with
    | Stop -> (i, j)
    | Diag ->
        Buffer.add_char qa q.[i - 1];
        Buffer.add_char sa s.[j - 1];
        back (i - 1) (j - 1)
    | Up ->
        Buffer.add_char qa q.[i - 1];
        Buffer.add_char sa '-';
        back (i - 1) j
    | Left ->
        Buffer.add_char qa '-';
        Buffer.add_char sa s.[j - 1];
        back i (j - 1)
  in
  let end_i, end_j = back !best_i !best_j in
  let rev buf =
    let s = Buffer.contents buf in
    String.init (String.length s) (fun i -> s.[String.length s - 1 - i])
  in
  let query_aligned = rev qa and subject_aligned = rev sa in
  {
    score = !best;
    query_aligned;
    subject_aligned;
    identity = identity_of query_aligned subject_aligned;
    query_span = (end_i, !best_i);
    subject_span = (end_j, !best_j);
  }

(* Int-only maxima for the score kernel. [Stdlib.max] is polymorphic:
   without flambda it compiles to a call to the generic compare. These
   spread the sign bit of the difference instead of branching; scores
   stay far from the int range, so the subtraction cannot overflow. *)
let sign_shift = Sys.int_size - 1

let[@inline] imax (a : int) (b : int) =
  let d = a - b in
  a - (d land (d asr sign_shift))

let[@inline] clamp0 (a : int) = a land lnot (a asr sign_shift)

(* The calling domain's work array for [local_score], taken out of its
   slot for the length of a call, so that another systhread of the
   domain aligning meanwhile finds the slot empty and allocates its own.
   It only grows: once it fits the domain's largest alignment, a call
   allocates no array of that size, which for most protein pairs would
   be a major-heap allocation per alignment. *)
let work_slot : int array Domain.DLS.key = Domain.DLS.new_key (fun () -> [||])

let take_work n =
  let w = Domain.DLS.get work_slot in
  Domain.DLS.set work_slot [||];
  if Array.length w >= n then w else Array.make n 0

let local_score ?(matrix = Subst_matrix.nucleotide) q s =
  let gap = Subst_matrix.gap_open matrix in
  let q, s = if String.length q <= String.length s then (s, q) else (q, s) in
  let n = String.length q and m = String.length s in
  (* One flat array: the DP row at [1..m] (column 0 stays 0), then the
     query profile, one row per distinct byte of [q] holding its scores
     against every byte of [s]. [row_of] maps a byte to its profile
     row's offset, shifted so that index [j] of the row scores
     [s.[j - 1]]. *)
  let row_of = Array.make 256 (-1) and rows = ref 0 in
  String.iter
    (fun c ->
      let c = Char.code c in
      if row_of.(c) < 0 then begin
        row_of.(c) <- m + (!rows * m);
        incr rows
      end)
    q;
  let work = take_work (m + 1 + (!rows * m)) in
  Array.fill work 0 (m + 1) 0;
  let tbl = Subst_matrix.table matrix and bias = Subst_matrix.table_bias in
  Array.iteri
    (fun c row ->
      if row >= 0 then
        for j = 1 to m do
          work.(row + j) <-
            Char.code tbl.[(c * 256) + Char.code s.[j - 1]] - bias
        done)
    row_of;
  let best = ref 0 in
  for i = 1 to n do
    let row = row_of.(Char.code (String.unsafe_get q (i - 1))) in
    let diag = ref 0 and left = ref 0 in
    (* HOT-PATH-BEGIN: two DP cells per iteration (and a last one when
       [m] is odd), reading only the DP row and the profile row. The row
       is updated in place: [work.(j)] still holds the previous row's
       cell (the up move) until this row's cell overwrites it. The
       diagonal and up moves do not depend on this row's previous cell,
       so they are combined (and clamped at 0) with branch-free int
       maxima before the left move joins by a conditional select: the
       chain from cell to cell is one add and one select. *)
    let j = ref 1 in
    while !j < m do
      let j1 = !j in
      let up1 = Array.unsafe_get work j1 in
      let v1 =
        clamp0 (imax (!diag + Array.unsafe_get work (row + j1)) (up1 + gap))
      in
      let l1 = !left + gap in
      let v1 = if l1 > v1 then l1 else v1 in
      Array.unsafe_set work j1 v1;
      if v1 > !best then best := v1;
      let up2 = Array.unsafe_get work (j1 + 1) in
      let v2 =
        clamp0 (imax (up1 + Array.unsafe_get work (row + j1 + 1)) (up2 + gap))
      in
      let l2 = v1 + gap in
      let v2 = if l2 > v2 then l2 else v2 in
      Array.unsafe_set work (j1 + 1) v2;
      if v2 > !best then best := v2;
      diag := up2;
      left := v2;
      j := j1 + 2
    done;
    if !j = m then begin
      let up = Array.unsafe_get work m in
      let v =
        clamp0 (imax (!diag + Array.unsafe_get work (row + m)) (up + gap))
      in
      let l = !left + gap in
      let v = if l > v then l else v in
      Array.unsafe_set work m v;
      if v > !best then best := v
    end
    (* HOT-PATH-END *)
  done;
  Domain.DLS.set work_slot work;
  !best

let self_score matrix s =
  let total = ref 0 in
  String.iter (fun c -> total := !total + Subst_matrix.score matrix c c) s;
  !total
