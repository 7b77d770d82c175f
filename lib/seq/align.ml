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

(* Shared dynamic program. [local] selects Smith-Waterman semantics:
   cells clamp at 0 and traceback starts at the best cell. *)
let run ~local ~matrix ~gap q s =
  let n = String.length q and m = String.length s in
  let score = Array.make_matrix (n + 1) (m + 1) 0 in
  let trace = Array.make_matrix (n + 1) (m + 1) Stop in
  if not local then begin
    for i = 1 to n do
      score.(i).(0) <- i * gap;
      trace.(i).(0) <- Up
    done;
    for j = 1 to m do
      score.(0).(j) <- j * gap;
      trace.(0).(j) <- Left
    done
  end;
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
      let v, t = if local && v < 0 then (0, Stop) else (v, t) in
      score.(i).(j) <- v;
      trace.(i).(j) <- t;
      if local && v > !best then begin
        best := v;
        best_i := i;
        best_j := j
      end
    done
  done;
  let start_i, start_j, final_score =
    if local then (!best_i, !best_j, !best) else (n, m, score.(n).(m))
  in
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
  let end_i, end_j = back start_i start_j in
  let rev buf =
    let s = Buffer.contents buf in
    String.init (String.length s) (fun i -> s.[String.length s - 1 - i])
  in
  let query_aligned = rev qa and subject_aligned = rev sa in
  {
    score = final_score;
    query_aligned;
    subject_aligned;
    identity = identity_of query_aligned subject_aligned;
    query_span = (end_i, start_i);
    subject_span = (end_j, start_j);
  }

let global ?(matrix = Subst_matrix.nucleotide) ?gap q s =
  let gap = Option.value gap ~default:(Subst_matrix.gap_open matrix) in
  run ~local:false ~matrix ~gap q s

let local ?(matrix = Subst_matrix.nucleotide) ?gap q s =
  let gap = Option.value gap ~default:(Subst_matrix.gap_open matrix) in
  run ~local:true ~matrix ~gap q s

(* Int-only maxima for the score kernel. [Stdlib.max] is polymorphic:
   without flambda it compiles to a call to the generic compare. These
   spread the sign bit of the difference instead of branching; scores
   stay far from the int range, so the subtraction cannot overflow. *)
let sign_shift = Sys.int_size - 1

let[@inline] imax (a : int) (b : int) =
  let d = a - b in
  a - (d land (d asr sign_shift))

let[@inline] clamp0 (a : int) = a land lnot (a asr sign_shift)

let local_score ?(matrix = Subst_matrix.nucleotide) ?gap q s =
  let gap = Option.value gap ~default:(Subst_matrix.gap_open matrix) in
  let q, s = if String.length q <= String.length s then (s, q) else (q, s) in
  let tbl = Subst_matrix.table matrix and bias = Subst_matrix.table_bias in
  let m = String.length s in
  (* two DP rows, swapped after each query character; column 0 stays 0 *)
  let prev = ref (Array.make (m + 1) 0) in
  let cur = ref (Array.make (m + 1) 0) in
  let best = ref 0 in
  for i = 1 to String.length q do
    let p = !prev and c = !cur in
    let qrow = Char.code (String.unsafe_get q (i - 1)) * 256 in
    let diag = ref 0 and left = ref 0 in
    (* HOT-PATH-BEGIN: one DP cell per iteration, branch-free int maxima.
       The diagonal and up moves do not depend on this row's previous
       cell, so they are combined (and clamped at 0) before the left
       move joins: the chain from cell to cell is one add and one imax. *)
    for j = 1 to m do
      let up = Array.unsafe_get p j in
      let d =
        !diag - bias
        + Char.code
            (String.unsafe_get tbl (qrow + Char.code (String.unsafe_get s (j - 1))))
      in
      let v = imax (clamp0 (imax d (up + gap))) (!left + gap) in
      Array.unsafe_set c j v;
      if v > !best then best := v;
      diag := up;
      left := v
    done;
    (* HOT-PATH-END *)
    prev := c;
    cur := p
  done;
  !best

let self_score matrix s =
  let total = ref 0 in
  String.iter (fun c -> total := !total + Subst_matrix.score matrix c c) s;
  !total

let normalized_score result ~query ~subject =
  let shorter =
    if String.length query <= String.length subject then query else subject
  in
  (* normalize against a nucleotide-style perfect score when the result came
     from the default matrix; callers with protein matrices should compare
     normalized scores only among themselves *)
  let denom = self_score Subst_matrix.nucleotide shorter in
  if denom <= 0 then 0.0
  else Float.max 0.0 (float_of_int result.score /. float_of_int denom)
