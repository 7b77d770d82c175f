(** The link-discovery settings: each technique's parameters and
    whether it runs. The passes themselves are run per changed source by
    the delta pipeline ([Aladin.Delta.relink]), each inside its own error
    boundary. *)

type params = {
  xref : Xref_disc.params;
  seq : Seq_links.params;
  text : Text_links.params;
  enable_seq : bool;
  enable_text : bool;
  enable_onto : bool;
}

val default_params : params

val count_by_kind : Link.t list -> (Link.kind * int) list
