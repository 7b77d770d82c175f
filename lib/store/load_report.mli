(** Typed per-load reports: what happened to each snapshot member,
    mirroring the pipeline's [Aladin_resilience.Run_report.t] across the
    process boundary.

    Loading a store is allowed to drop corrupt records around good ones
    or to quarantine an unreadable file — but, exactly like a degraded
    pipeline step, every such decision is recorded here, rendered by the
    CLI, and turned into a nonzero exit under [--strict]. *)

type status =
  | Ok  (** length and checksum verified, decoded cleanly *)
  | Salvaged of int
      (** checksum mismatch, but the member was recovered record-by-record;
          the payload is the number of records dropped (0 = content was
          structurally intact, only the stored checksum was stale) *)
  | Quarantined of string
      (** unrecoverable; moved to [<dir>/.quarantine/] with this reason *)
  | Missing  (** listed in the manifest but absent on disk *)

type member = { path : string; status : status }

type t = {
  dir : string;
  generation : int;  (** the snapshot the manifest committed *)
  members : member list;  (** manifest order *)
}

val is_clean : t -> bool
(** Every member [Ok] — the predicate behind [load --strict] and the
    [fsck] exit status. *)

val records_dropped : t -> int
(** Total over [Salvaged] members. *)

val bump_salvaged : t -> string -> int -> t
(** [bump_salvaged t path n] folds [n] more dropped records into
    [path]'s status ([Ok] becomes [Salvaged n]): how decode-layer
    salvage (e.g. unreadable [metadata.txt] lines, or CSV rows a
    salvaged member lost to raggedness) is surfaced on the member that
    caused it. No-op when [n = 0] or the
    member is quarantined/missing. *)

val render : t -> string
(** Multi-line human-readable rendering for the CLI. *)
