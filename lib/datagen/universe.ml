module Sq = Aladin_seq

type kind = Protein | Gene | Structure | Disease | Term | Interaction

type entity = {
  uid : int;
  kind : kind;
  name : string;
  long_name : string;
  description : string;
  sequence : string option;
  family : int option;
  keywords : string list;
  related : int list;
  organism : string;
}

type params = {
  seed : int;
  n_proteins : int;
  n_genes : int;
  n_structures : int;
  n_diseases : int;
  n_terms : int;
  n_interactions : int;
  n_families : int;
  seq_len : int;
  mutation_rate : float;
}

let default_params =
  {
    seed = 42;
    n_proteins = 120;
    n_genes = 60;
    n_structures = 50;
    n_diseases = 20;
    n_terms = 24;
    n_interactions = 30;
    n_families = 12;
    seq_len = 120;
    mutation_rate = 0.05;
  }

type t = { params : params; all : entity array; by_uid : (int, entity) Hashtbl.t }

let unique_name rng seen make =
  let rec try_once attempts =
    let name = make () in
    if Hashtbl.mem seen name && attempts < 50 then try_once (attempts + 1)
    else begin
      Hashtbl.replace seen name ();
      name
    end
  in
  ignore rng;
  try_once 0

let generate params =
  let rng = Rng.create params.seed in
  let seen = Hashtbl.create 256 in
  let next_uid = ref 0 in
  let fresh () =
    incr next_uid;
    !next_uid
  in
  let entities = ref [] in
  let push e = entities := e :: !entities in
  (* terms: one per keyword, cycling if needed *)
  let n_kw = Array.length Names.keywords in
  let terms =
    List.init params.n_terms (fun i ->
        let kw = Names.keywords.(i mod n_kw) in
        let name = if i < n_kw then kw else Printf.sprintf "%s %d" kw (i / n_kw) in
        {
          uid = fresh ();
          kind = Term;
          name;
          long_name = name;
          description = Names.go_definition rng name;
          sequence = None;
          family = None;
          keywords = [ name ];
          related = [];
          organism = "";
        })
  in
  List.iter push terms;
  (* protein sequence families; lengths vary per family like real proteins,
     so sequence columns never look like fixed-length accession numbers *)
  let family_seqs =
    Array.init (max 1 params.n_families) (fun _ ->
        let len = max 30 (params.seq_len / 2 + Rng.int rng (max 1 params.seq_len)) in
        Seq_gen.protein rng len)
  in
  let proteins =
    List.init params.n_proteins (fun _ ->
        let fam = Rng.int rng (max 1 params.n_families) in
        let seq = Seq_gen.mutate rng ~rate:params.mutation_rate family_seqs.(fam) in
        let name = unique_name rng seen (fun () -> Names.gene_symbol rng) in
        let keywords =
          Rng.sample rng (Rng.range rng 1 4)
            (List.map (fun (e : entity) -> e.name) terms)
        in
        {
          uid = fresh ();
          kind = Protein;
          name;
          long_name = Names.protein_name rng;
          description = Names.description rng name;
          sequence = Some seq;
          family = Some fam;
          keywords;
          related = [];
          organism = Rng.choice_arr rng Names.species;
        })
  in
  List.iter push proteins;
  let protein_uids = List.map (fun e -> e.uid) proteins in
  (* genes encode proteins; their descriptions mention the protein's name *)
  let genes =
    List.init params.n_genes (fun _ ->
        let prot_uid = Rng.choice rng protein_uids in
        let prot = List.find (fun e -> e.uid = prot_uid) proteins in
        let name = unique_name rng seen (fun () -> Names.gene_symbol rng) in
        {
          uid = fresh ();
          kind = Gene;
          name;
          long_name = "Gene encoding " ^ prot.long_name;
          description = Names.description rng ~mention:prot.name name;
          sequence =
            Some (Seq_gen.dna rng (params.seq_len * 2 + Rng.int rng (max 1 (params.seq_len * 2))));
          family = None;
          keywords = Rng.sample rng 2 prot.keywords;
          related = [ prot_uid ];
          organism = prot.organism;
        })
  in
  List.iter push genes;
  (* structures resolve proteins: almost the protein's sequence *)
  let structures =
    List.init params.n_structures (fun _ ->
        let prot_uid = Rng.choice rng protein_uids in
        let prot = List.find (fun e -> e.uid = prot_uid) proteins in
        let seq =
          match prot.sequence with
          | Some s -> Some (Seq_gen.mutate rng ~rate:0.01 s)
          | None -> None
        in
        let name =
          unique_name rng seen (fun () -> Rng.pattern rng "#@@@")
        in
        {
          uid = fresh ();
          kind = Structure;
          name;
          long_name = "Crystal structure of " ^ prot.long_name;
          description =
            Names.description rng ~mention:prot.name ("Structure " ^ name);
          sequence = seq;
          family = prot.family;
          keywords = Rng.sample rng 1 prot.keywords;
          related = [ prot_uid ];
          organism = prot.organism;
        })
  in
  List.iter push structures;
  (* diseases are caused by genes; human diseases (the OMIM role) prefer
     human genes when any exist *)
  let gene_uids = List.map (fun e -> e.uid) genes in
  let human_gene_uids =
    List.filter_map
      (fun e -> if e.organism = "Homo sapiens" then Some e.uid else None)
      genes
  in
  let disease_pool = if human_gene_uids <> [] then human_gene_uids else gene_uids in
  let diseases =
    List.init params.n_diseases (fun i ->
        let gene_uid = if disease_pool = [] then [] else [ Rng.choice rng disease_pool ] in
        let base = Names.diseases.(i mod Array.length Names.diseases) in
        let name =
          if i < Array.length Names.diseases then base
          else Printf.sprintf "%s type %d" base (i / Array.length Names.diseases + 1)
        in
        {
          uid = fresh ();
          kind = Disease;
          name;
          long_name = String.capitalize_ascii name;
          description = Names.description rng name;
          sequence = None;
          family = None;
          keywords = [];
          related = gene_uid;
          organism = "Homo sapiens";
        })
  in
  List.iter push diseases;
  (* protein-protein interactions (the BIND/MINT role of §4.5) *)
  let interactions =
    List.init params.n_interactions (fun i ->
        match protein_uids with
        | [] -> None
        | _ ->
            let p1 = Rng.choice rng protein_uids in
            let p2 = Rng.choice rng protein_uids in
            if p1 = p2 then None
            else begin
              let e1 = List.find (fun e -> e.uid = p1) proteins in
              let e2 = List.find (fun e -> e.uid = p2) proteins in
              Some
                {
                  uid = fresh ();
                  kind = Interaction;
                  name = Printf.sprintf "INT%04d" (i + 1);
                  long_name =
                    Printf.sprintf "Interaction of %s with %s" e1.name e2.name;
                  description =
                    (let base =
                       Printf.sprintf
                         "Physical interaction between %s and %s observed by %s."
                         e1.name e2.name
                         (Rng.choice rng
                            [ "yeast two-hybrid"; "co-immunoprecipitation";
                              "affinity purification"; "crosslinking" ])
                     in
                     (* real annotations vary widely in length *)
                     if Rng.chance rng 0.5 then
                       base ^ " " ^ Names.description rng e1.name
                     else base);
                  sequence = None;
                  family = None;
                  keywords = Rng.sample rng 1 (e1.keywords @ e2.keywords);
                  related = [ p1; p2 ];
                  organism = e1.organism;
                }
            end)
    |> List.filter_map Fun.id
  in
  List.iter push interactions;
  let all = Array.of_list (List.rev !entities) in
  let by_uid = Hashtbl.create (Array.length all) in
  Array.iter (fun e -> Hashtbl.replace by_uid e.uid e) all;
  { params; all; by_uid }

let params t = t.params

let entities t = Array.to_list t.all

let entity t uid =
  match Hashtbl.find_opt t.by_uid uid with
  | Some e -> e
  | None -> raise Not_found

let of_kind t k = List.filter (fun e -> e.kind = k) (entities t)
