type params = {
  xref : Xref_disc.params;
  seq : Seq_links.params;
  text : Text_links.params;
  enable_seq : bool;
  enable_text : bool;
  enable_onto : bool;
}

let default_params =
  {
    xref = Xref_disc.default_params;
    seq = Seq_links.default_params;
    text = Text_links.default_params;
    enable_seq = true;
    enable_text = true;
    enable_onto = true;
  }

let count_by_kind links =
  (* one fold over the links, not one full scan per kind *)
  let counts = Array.make (List.length Link.kinds) 0 in
  List.iter
    (fun (l : Link.t) ->
      let r = Link.kind_rank l.kind in
      counts.(r) <- counts.(r) + 1)
    links;
  List.filter_map
    (fun k ->
      match counts.(Link.kind_rank k) with 0 -> None | n -> Some (k, n))
    Link.kinds
