(** Evaluator for parsed SQL over warehouse relations.

    Tables are resolved through a callback so the same evaluator works for
    one catalog or for the whole warehouse (where tables are addressed as
    [source.relation]). Supports boolean WHERE expressions (AND/OR/NOT,
    IN, LIKE, IS NULL), GROUP BY and the COUNT/SUM/AVG/MIN/MAX
    aggregates. *)

open Aladin_relational

exception Eval_error of string

val run : resolve:(string -> Relation.t option) -> string -> Relation.t
(** Parse + eval. *)

val render_result : Relation.t -> string
(** ASCII table for CLI/examples: the first 25 rows, then the row
    count. *)
