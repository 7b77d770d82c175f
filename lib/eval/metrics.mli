(** Precision / recall / F1 over sets — the paper's proposed quality
    estimation ("estimate the amount of errors of the system using
    performance measures, such as precision and recall", §3). *)

type scores = { precision : float; recall : float; f1 : float }

val evaluate : expected:string list -> predicted:string list -> scores

val pair_key : string -> string -> string
(** Canonical unordered-pair key. *)

val mean : float list -> float
(** 0 on []. *)
