(** Relational dump loader: a set of named CSV documents (one per relation)
    plus an optional constraints manifest — the "direct relational dump
    files" import path of §4.1 (Swiss-Prot, GeneOntology, EnsEmbl). *)

open Aladin_relational
module Import_error = Aladin_resilience.Import_error

val load_dir :
  name:string -> string -> Catalog.t * Import_error.record_error list
(** Every [*.csv] becomes a relation (file basename); [constraints.txt],
    when present, is parsed as one declared constraint per line ([#]
    comments and blank lines skipped). A directory with a
    [MANIFEST] is read as a crash-safe [Aladin_store] snapshot: members
    are checksum-verified, damaged ones salvaged or quarantined, and any
    degradation reported as record errors alongside the usual ones.
    A plain directory of CSVs (no manifest) loads as before.
    Tolerant: ragged rows, unloadable relation files, bad constraint
    lines and constraints over unknown relations are dropped and
    reported as record errors (the [index] is the row or line number
    within its file; the [reason] names the file) instead of raising.
    @raise Sys_error on an unreadable directory or a store whose
    manifest is itself damaged. *)

val catalog_of_members :
  name:string ->
  (string * string) list ->
  Catalog.t * Import_error.record_error list
(** The tolerant core of {!load_dir} over in-memory [(file, content)]
    members ([*.csv] relations plus optional [constraints.txt]). *)

val members_of_catalog : Catalog.t -> Aladin_store.Snapshot.member list
(** The snapshot members {!save_dir} writes: one checksummed CSV per
    relation plus [constraints.txt] (per-record checksums) when any
    constraint is declared. *)

val save_dir : Catalog.t -> string -> (unit, string) result
(** Write the catalog as a crash-safe [Aladin_store] snapshot: each
    relation under [<relation>.csv] plus [constraints.txt], committed
    atomically via the manifest. Creates the directory. Refuses
    ([Error]) to clobber an existing non-empty directory that is not an
    ALADIN store. *)
