(** Convenience facade: import-from-anything + integrate + report.

    [Aladin.Aladin_system] is what the examples and the CLI use; library
    users wanting control work with {!Warehouse} directly. *)

module Import_error = Aladin_resilience.Import_error

val import_file : string -> (Aladin_formats.Import.import, Import_error.t) result
(** Sniff the format and import (step 1). The source name is the file
    basename without extension (a directory keeps its full basename); a
    directory is loaded as a CSV dump. Never
    raises on bad input: unrecognized or unparseable data comes back as
    [Error], and recovered per-record failures ride along in the
    [import]'s [record_errors]. *)

val integrate_paths :
  ?config:Config.t -> ?trace:Aladin_obs.Trace.t -> string list -> Warehouse.t
(** Import and integrate every path, each addition into [trace] when
    given ({!Warehouse.add_source}). A path that fails to import is
    quarantined via {!Warehouse.report_import_failure} — the rest still
    integrate; inspect {!Warehouse.run_reports}. *)

val summary : Warehouse.t -> string
(** Human-readable integration summary: per source the discovered primary
    relation and structure, then link and duplicate counts. *)
