(** Per-attribute statistics.

    §4.4 of the paper: "These statistics need to be computed only once for
    each data source and can then be reused for subsequently added data
    sources." The stats below feed accession detection, inclusion-dependency
    pruning, and link-discovery pruning. *)

type t = {
  relation : string;
  attribute : string;
  rows : int;  (** total rows, including nulls *)
  nulls : int;
  distinct : int;  (** distinct non-null values *)
  min_len : int;  (** over non-null rendered values; 0 when none *)
  max_len : int;
  avg_len : float;
  numeric_frac : float;  (** fraction of non-null values that are numeric *)
  alpha_frac : float;  (** fraction containing at least one letter *)
  all_unique : bool;  (** non-null values pairwise distinct, >= 1 of them *)
  sample : Value.t list;  (** up to [sample_size] distinct values *)
}

val of_relation : Relation.t -> t list
(** One record per attribute, in schema order. *)

val length_spread : t -> float
(** [(max_len - min_len) / max 1 max_len] — the paper's "values differ by at
    most 20 percent in length" test uses this. 0 when the column is empty. *)
