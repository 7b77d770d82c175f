type scored = {
  relation : string;
  accession_attribute : string;
  in_degree : int;
  score : float;
}

let rank graph candidates =
  candidates
  |> List.map (fun (c : Accession.candidate) ->
         let in_degree = Fk_graph.in_degree graph c.relation in
         (* the row count nudges ties toward the bigger table, which in
            life-science sources is the entry table, not a dictionary *)
         let score =
           float_of_int in_degree
           +. (float_of_int c.stats.rows /. 1_000_000.0)
         in
         { relation = c.relation; accession_attribute = c.attribute; in_degree; score })
  |> List.sort (fun a b ->
         match Float.compare b.score a.score with
         | 0 -> String.compare a.relation b.relation
         | c -> c)

let choose graph candidates =
  match rank graph candidates with [] -> None | best :: _ -> Some best

(* in-degree above the average that makes a relation a primary *)
let margin = 0.5

let choose_multi graph candidates =
  let ranked = rank graph candidates in
  let avg = Fk_graph.average_in_degree graph in
  let above =
    List.filter (fun s -> float_of_int s.in_degree >= avg +. margin) ranked
  in
  match (above, ranked) with
  | [], [] -> []
  | [], best :: _ -> [ best ]
  | picked, _ -> picked
