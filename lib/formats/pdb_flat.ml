open Aladin_relational

type raw = { code : string; payload : string }

let split_records doc =
  let lines = String.split_on_char '\n' doc in
  let finished = ref [] and current = ref [] in
  let flush () =
    if !current <> [] then begin
      finished := List.rev !current :: !finished;
      current := []
    end
  in
  List.iter
    (fun line ->
      let line = String.trim line in
      if line = "" then ()
      else if line = "END" then flush ()
      else
        match String.index_opt line ' ' with
        | None -> current := { code = line; payload = "" } :: !current
        | Some i ->
            current :=
              { code = String.sub line 0 i;
                payload = String.trim (String.sub line i (String.length line - i)) }
              :: !current)
    lines;
  flush ();
  List.rev !finished

let payloads code lines =
  List.filter_map (fun l -> if l.code = code then Some l.payload else None) lines

let joined code lines = String.concat " " (payloads code lines)

let tokens s =
  String.split_on_char ' ' s |> List.filter (fun t -> t <> "")

let parse ?(name = "pdb") doc =
  let cat = Catalog.create ~name in
  let structure =
    Catalog.create_relation cat ~name:"structure"
      (Schema.of_names
         [ "structure_id"; "pdb_acc"; "classification"; "title"; "compound"; "method" ])
  in
  let chain =
    Catalog.create_relation cat ~name:"chain"
      (Schema.of_names [ "chain_id"; "structure_id"; "chain_name"; "sequence" ])
  in
  let struct_ref =
    Catalog.create_relation cat ~name:"struct_ref"
      (Schema.of_names [ "ref_id"; "structure_id"; "db"; "accession" ])
  in
  let next_chain = ref 1 and next_ref = ref 1 in
  List.iteri
    (fun i lines ->
      let sid = i + 1 in
      let classification, pdb_acc =
        match tokens (joined "HEADER" lines) with
        | [] -> ("", "")
        | toks ->
            let rec split_last acc = function
              | [ last ] -> (List.rev acc, last)
              | x :: rest -> split_last (x :: acc) rest
              | [] -> (List.rev acc, "")
            in
            let cls, acc = split_last [] toks in
            (String.concat " " cls, acc)
      in
      Relation.insert structure
        [| Value.Int sid; Value.text pdb_acc;
           Value.text classification;
           Value.text (joined "TITLE" lines);
           Value.text (joined "COMPND" lines);
           Value.text (joined "EXPDTA" lines) |];
      (* SEQRES lines: first token is the chain name, rest is sequence *)
      let chains : (string, Buffer.t) Hashtbl.t = Hashtbl.create 4 in
      List.iter
        (fun p ->
          match tokens p with
          | cname :: parts ->
              let buf =
                match Hashtbl.find_opt chains cname with
                | Some b -> b
                | None ->
                    let b = Buffer.create 128 in
                    Hashtbl.add chains cname b;
                    b
              in
              List.iter (Buffer.add_string buf) parts
          | [] -> ())
        (payloads "SEQRES" lines);
      Hashtbl.fold (fun cname buf acc -> (cname, Buffer.contents buf) :: acc) chains []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      |> List.iter (fun (cname, seq) ->
             Relation.insert chain
               [| Value.Int !next_chain; Value.Int sid; Value.text cname;
                  Value.text seq |];
             incr next_chain);
      List.iter
        (fun p ->
          match tokens p with
          | _pdb :: _chain :: db :: acc :: _ ->
              Relation.insert struct_ref
                [| Value.Int !next_ref; Value.Int sid; Value.text db; Value.text acc |];
              incr next_ref
          | _ :: _ | [] -> ())
        (payloads "DBREF" lines))
    (split_records doc);
  cat
