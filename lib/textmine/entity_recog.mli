(** Biological named-entity recognition in free text (GAPSCORE stand-in,
    §4.4: "methods for finding names of biological entities in natural text
    can be used for extracting names that are matched with unique fields of
    primary relations"). Combines a dictionary of known names with surface
    heuristics for gene/protein-like tokens. *)

type mention = { surface : string; start : int; score : float }
(** [start] is the token index in the text; [score] in (0,1]. *)

type t

val create : unit -> t

val add_dictionary : t -> string list -> unit
(** Register known entity names (matched case-insensitively). *)

val recognize : t -> ?min_score:float -> string -> mention list
(** Mentions above [min_score] (default 0.5), in text order. Dictionary
    matches score 1.0; others get a surface score (how accession- or
    symbol-like the token looks). Stopwords never match. *)

val recognize_dictionary : t -> string -> mention list
(** Dictionary hits only (all score 1.0), in text order — exactly the
    mentions of {!recognize} whose lowercased surface is in the
    dictionary, without scoring every other token's surface shape on the
    way. The fast path for linking, where non-dictionary mentions are
    discarded anyway. *)
