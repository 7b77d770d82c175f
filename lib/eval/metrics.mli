(** Precision / recall / F1 over sets — the paper's proposed quality
    estimation ("estimate the amount of errors of the system using
    performance measures, such as precision and recall", §3). *)

type counts = { tp : int; fp : int; fn : int }

type scores = { precision : float; recall : float; f1 : float }

val of_counts : counts -> scores
(** Precision 1.0 when nothing was predicted; recall 1.0 when nothing was
    expected. *)

val compare_sets : expected:string list -> predicted:string list -> counts
(** Set semantics (duplicates collapse). Elements are opaque keys. *)

val evaluate : expected:string list -> predicted:string list -> scores

val pair_key : string -> string -> string
(** Canonical unordered-pair key. *)

val mean : float list -> float
(** 0 on []. *)
