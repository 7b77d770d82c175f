(** The data-import component (§4.1): format sniffing + dispatch.

    "A variety of known import procedures can be used" — this module picks
    the right parser from content, so a source directory can be ingested
    without telling ALADIN what is inside.

    Importers never raise: the result carries either a partial-but-usable
    catalog (bad records collected as {!Aladin_resilience.Import_error}
    record errors) or a typed whole-source error. The warehouse folds
    record errors into the run report's import step as warnings. *)

open Aladin_relational
module Import_error = Aladin_resilience.Import_error

type import = {
  catalog : Catalog.t;
  record_errors : Import_error.record_error list;
      (** records (or CSV rows) that could not be parsed and were dropped;
          [index] counts records in document order (for CSV, the header
          row is record 0) *)
}

val import_string : name:string -> string -> (import, Import_error.t) result
(** Import a document of any recognizable format. [Error] when the format
    cannot be sniffed ([Unrecognized]) or nothing at all parses
    ([Parse]); otherwise a catalog plus the per-record errors recovered
    along the way. Never raises. *)

val import_path : name:string -> string -> (import, Import_error.t) result
(** A directory is loaded as a CSV dump; a file is sniffed and parsed.
    Unreadable paths yield [Error] with kind [Io]. Never raises. *)
