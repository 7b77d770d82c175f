(* k-mer length: BLASTN-like for nucleotides, shorter for proteins *)
let k_of = function
  | Alphabet.Dna | Alphabet.Rna -> 11
  | Alphabet.Protein -> 4

(* shared k-mers a pair needs before it is aligned *)
let min_hits = 2

(* The normalized score divides by the shorter sequence's self-score,
   the query's on tied lengths, so a pair's hit depends on which side
   is the query. *)
let score matrix ~query ~query_self ~subject ~subject_self =
  let raw = Align.local_score ~matrix query subject in
  let denom =
    if String.length query <= String.length subject then query_self
    else subject_self
  in
  (raw, if denom <= 0 then 0.0 else float_of_int raw /. float_of_int denom)

(* The index is built once over a fixed array of normalized sequences,
   whose positions are their ids, and only read afterwards, so probes
   can run on any domain. Each distinct k-mer's posting carries a slot number:
   a probe sorts the postings it found by slot, so a k-mer it repeats
   counts once, and adds every distinct posting's ids into an int array
   of shared k-mer counts. *)

type posting = { slot : int; mutable ids : int list  (* descending *) }

type probe_index = {
  k : int;
  matrix : Subst_matrix.t;
  seqs : string array;
  selfs : int array;
  postings : (string, posting) Hashtbl.t;
}

type probe_hit = { id : int; score : int; norm : float }

let probe_index kind seqs =
  let k = k_of kind and matrix = Subst_matrix.for_kind kind in
  let postings = Hashtbl.create 1024 in
  Array.iteri
    (fun id s ->
      for i = 0 to String.length s - k do
        let km = String.sub s i k in
        match Hashtbl.find postings km with
        | p -> (
            (* ids arrive in ascending order: a head equal to [id] is a
               k-mer this sequence repeats *)
            match p.ids with
            | last :: _ when last = id -> ()
            | ids -> p.ids <- id :: ids)
        | exception Not_found ->
            Hashtbl.add postings km
              { slot = Hashtbl.length postings; ids = [ id ] }
      done)
    seqs;
  { k; matrix; seqs;
    selfs = Array.map (Align.self_score matrix) seqs; postings }

let probe ix ~probe_is_query ~keep p ~min_normalized =
  let found = ref [] in
  for i = 0 to String.length p - ix.k do
    match Hashtbl.find ix.postings (String.sub p i ix.k) with
    | posting -> found := posting :: !found
    | exception Not_found -> ()
  done;
  let counts = Array.make (Array.length ix.seqs) 0 in
  List.iter
    (fun posting ->
      List.iter (fun id -> counts.(id) <- counts.(id) + 1) posting.ids)
    (List.sort_uniq (fun a b -> Int.compare a.slot b.slot) !found);
  let p_self = Align.self_score ix.matrix p in
  let alignments = ref 0 and hits = ref [] in
  Array.iteri
    (fun id c ->
      if c >= min_hits && keep id then begin
        incr alignments;
        let s = ix.seqs.(id) and s_self = ix.selfs.(id) in
        let raw, norm =
          if probe_is_query then
            score ix.matrix ~query:p ~query_self:p_self ~subject:s
              ~subject_self:s_self
          else
            score ix.matrix ~query:s ~query_self:s_self ~subject:p
              ~subject_self:p_self
        in
        if norm >= min_normalized then
          hits := { id; score = raw; norm } :: !hits
      end)
    counts;
  Aladin_obs.Trace.ambient_incr ~by:!alignments "seq.alignments";
  List.rev !hits
