(** Helpers for line-prefixed flat-file formats (Swiss-Prot/EMBL style).

    Records are sequences of lines ["XX   payload"] terminated by ["//"];
    two-letter codes repeat for continuation. *)

type line = { code : string; payload : string }

val records : string -> line list list
(** Split a whole document into records at ["//"] terminator lines. A final
    unterminated record is kept. *)

val joined : code:string -> line list -> string option
(** Concatenate (space-separated) the payloads of all lines with [code];
    [None] when the code never occurs. *)

val all : code:string -> line list -> string list
(** Payloads of every line with [code], in order. *)

val split_list : string -> string list
(** Split a payload like ["kw1; kw2; kw3."] on ';', trimming blanks and a
    trailing '.'. *)
