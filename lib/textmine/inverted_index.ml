type posting = { doc_id : string; field : string; tf : int }

(* a posting as the index keeps it: the document by its number *)
type entry = { doc : int; field : string; tf : int }

(* A term's postings, newest first, and the number of distinct documents
   they name. [build] fills both and never writes them after it returns,
   so pool domains may read them at once. *)
type term = { mutable postings : entry list; mutable df : int }

type t = {
  index : (string, term) Hashtbl.t;
  doc_ids : string array;  (* document number -> id, in first-add order *)
}

let build fill =
  let index = Hashtbl.create 1024 in
  let numbers = Hashtbl.create 256 in
  let ids = ref [] in
  let add ~doc_id ~field text =
    let doc =
      match Hashtbl.find_opt numbers doc_id with
      | Some d -> d
      | None ->
          let d = Hashtbl.length numbers in
          Hashtbl.add numbers doc_id d;
          ids := doc_id :: !ids;
          d
    in
    let counts = Hashtbl.create 16 in
    List.iter
      (fun w ->
        let c = try Hashtbl.find counts w with Not_found -> 0 in
        Hashtbl.replace counts w (c + 1))
      (Tokenize.terms text);
    Hashtbl.iter
      (fun w tf ->
        let p = { doc; field; tf } in
        match Hashtbl.find_opt index w with
        | Some t -> t.postings <- p :: t.postings
        | None -> Hashtbl.add index w { postings = [ p ]; df = 0 })
      counts
  in
  fill add;
  (* every term's distinct documents, counted once: [last.(d)] is the
     number of the last term that counted document [d] (a document
     indexed under several fields has one posting per field) *)
  let last = Array.make (Hashtbl.length numbers) (-1) in
  let k = ref 0 in
  Hashtbl.iter
    (fun _ t ->
      incr k;
      List.iter
        (fun p ->
          if last.(p.doc) <> !k then begin
            last.(p.doc) <- !k;
            t.df <- t.df + 1
          end)
        t.postings)
    index;
  { index; doc_ids = Array.of_list (List.rev !ids) }

let doc_count t = Array.length t.doc_ids

let find t term = Hashtbl.find_opt t.index (String.lowercase_ascii term)

let postings t term =
  match find t term with
  | Some e ->
      List.map
        (fun (p : entry) -> { doc_id = t.doc_ids.(p.doc); field = p.field; tf = p.tf })
        e.postings
  | None -> []

type query_result = { doc_id : string; score : float; matched : string list }

let idf_of t e =
  let n = float_of_int (max 1 (doc_count t)) in
  if e.df = 0 then 0.0 else log (1.0 +. (n /. float_of_int e.df))

let idf t term = match find t term with Some e -> idf_of t e | None -> 0.0

let search t ?field ?(limit = 20) query =
  let terms = Tokenize.terms query in
  let scores : (int, float ref * string list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun term ->
      match find t term with
      | None -> ()
      | Some e ->
          let w = idf_of t e in
          if w > 0.0 then
            e.postings
            |> List.iter (fun (p : entry) ->
                   let keep =
                     match field with None -> true | Some f -> p.field = f
                   in
                   if keep then
                     let entry =
                       match Hashtbl.find_opt scores p.doc with
                       | Some e -> e
                       | None ->
                           let e = (ref 0.0, ref []) in
                           Hashtbl.add scores p.doc e;
                           e
                     in
                     let score, matched = entry in
                     score := !score +. (float_of_int p.tf *. w);
                     if not (List.mem term !matched) then
                       matched := term :: !matched))
    terms;
  Hashtbl.fold
    (fun doc (score, matched) acc ->
      (* reward matching more distinct query terms *)
      let coverage =
        float_of_int (List.length !matched)
        /. float_of_int (max 1 (List.length terms))
      in
      {
        doc_id = t.doc_ids.(doc);
        score = !score *. (0.5 +. (0.5 *. coverage));
        matched = !matched;
      }
      :: acc)
    scores []
  |> List.sort (fun a b ->
         match Float.compare b.score a.score with
         | 0 -> String.compare a.doc_id b.doc_id
         | c -> c)
  |> List.filteri (fun i _ -> i < limit)
