(** Declared integrity constraints.

    ALADIN exploits constraints when the import parser provides them and
    infers the rest from data (§4.1–4.2). This module is the declared part:
    the data dictionary. *)

type t =
  | Unique of { relation : string; attribute : string }
  | Primary_key of { relation : string; attribute : string }
  | Foreign_key of {
      src_relation : string;
      src_attribute : string;
      dst_relation : string;
      dst_attribute : string;
    }

val equal : t -> t -> bool
