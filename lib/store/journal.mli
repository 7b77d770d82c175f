(** The plan file of a journaled integration, beside an ordinary
    snapshot store that holds what the integration committed.

    Layout:
    {v
    <dir>/JOURNAL   one checksummed header line: the plan
    <dir>/store/    an ordinary {!Snapshot} store, saved after each step
    v}

    [JOURNAL] is written once, atomically, by {!create}, and never
    appended to. The store's [MANIFEST] is the only record of what the
    integration committed: a step is committed once the save after it
    has renamed its manifest into place. A process killed before that
    rename leaves the previous generation in force and the step is
    recomputed; killed after it, the step is restored from the store.

    The header is a {!Records.record} whose payload is a
    {!Serial.record}: the magic, the format version (2), then the caller's
    [meta] as [key=value] fields — the integration {e plan}. The write
    is {!Fault}-aware like every store write. Single-process,
    single-writer. *)

val exists : string -> bool
(** A [JOURNAL] file is present in the directory. *)

val store_dir : string -> string
(** [<dir>/store], the snapshot store of the journaled integration. *)

val create : string -> meta:(string * string) list -> (unit, string) result
(** Start a fresh journal: write the plan header atomically (creating
    the directory). Refuses an existing journal (resume it instead), a
    path that is not a directory, every non-empty directory except one
    holding only the temp files an interrupted write leaves behind — a
    leftover [store/] too, so a new plan never adopts a stale store —
    and meta keys containing ['='].
    @raise Fault.Killed under an armed fault. *)

val plan : string -> ((string * string) list, string) result
(** The header's [meta] pairs, in order. [Error] for a missing journal,
    a header failing its checksum, a foreign magic or a version other
    than 2. Lines after the header are ignored: the
    intent, commit and reset records of journals written in the earlier
    append-only format do not stop them from resuming. Never raises. *)
