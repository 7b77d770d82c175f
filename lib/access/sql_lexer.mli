(** Tokenizer for the warehouse's SQL subset (§4.6 "querying allows full
    SQL queries on the schemata as imported" — here: SELECT / JOIN / WHERE /
    ORDER BY / LIMIT). *)

type token =
  | Ident of string  (** possibly qualified: a, t.a, src.t.a *)
  | String_lit of string
  | Number_lit of float
  | Comma
  | Star
  | Lparen
  | Rparen
  | Eq
  | Neq
  | Lt
  | Gt
  | Le
  | Ge
  | Kw of string  (** uppercased keyword: SELECT, FROM, ... *)

exception Lex_error of string

val tokenize : string -> token list
(** @raise Lex_error on unterminated strings or stray characters. *)

val pp_token : Format.formatter -> token -> unit
