(** Crash-safe snapshot store: a directory whose contents are either the
    previous consistent save or the new one — never a torn mix.

    Layout:
    {v
    <dir>/MANIFEST            member list + checksums, the commit record
    <dir>/snap-00000007/...   the committed generation's member files
    <dir>/.quarantine/        damaged members moved aside on load/repair
    v}

    {!save} writes every member (fsynced) into a {e fresh} generation
    directory — a member whose stored bytes equal the committed
    generation's is hard-linked from it instead — fsyncs every directory
    it created or filled, then commits by atomically renaming a new
    [MANIFEST] over the old one. The manifest names the generation and records each
    member's kind, length and CRC-32, plus its own trailing self-CRC; a
    crash at any byte leaves the old manifest — and therefore the old,
    untouched generation — in force. Stale temp files and orphan
    generations from interrupted saves are swept on the next save or
    load.

    {!load} verifies every member against the manifest and salvages
    around damage instead of aborting: record files recover
    line-by-line (see {!Records}), CSVs drop rows that no longer fit the
    header, and unrecoverable members are moved to [.quarantine/] with
    the reason recorded. What happened to each member comes back as a
    {!Load_report.t}. *)

type kind =
  | Records  (** line records with per-record checksums; salvageable *)
  | Csv  (** CSV with header; salvaged by dropping non-conforming rows *)
(** A manifest written before [pairs.txt] became a [Records] member names
    its kind [pairs]; that reads as [Records], so such a store loads, and
    its next save still hard-links unchanged members. *)

type member = { path : string; kind : kind; content : string }
(** [path] is relative to the store ([/]-separated subdirectories
    allowed); [content] is the logical document — the store handles the
    on-disk encoding per [kind]. *)

val is_store : string -> bool
(** A committed [MANIFEST] is present. *)

val save : string -> member list -> (int, string) result
(** Atomic commit of a whole snapshot; [Ok] names the generation it
    committed, one past the highest present (generations only grow).
    Refuses ([Error]) to write into
    an existing non-empty directory that is not already an ALADIN store,
    rather than clobbering user files; also [Error] on invalid member
    paths (empty, absolute, [.]/[..] segments, duplicates, or a path
    that another member's path lies under, such as [metadata.txt] and
    [metadata.txt/term.csv]), checked before anything is created, or on
    I/O failure (in which case the previous snapshot is still in
    force).
    @raise Fault.Killed under an armed injected fault. *)

val load : string -> (member list * Load_report.t, string) result
(** Read back the committed snapshot, salvaging per-member (see above);
    quarantines unrecoverable members and sweeps stale temp/orphan
    files. Members that could not be recovered are absent from the
    returned list and flagged in the report. [Error] only for
    store-level damage: no directory, no manifest, or a manifest that
    fails its own checksum or version check or names a member path
    {!save} would refuse (a [..] segment, an absolute path, ...) — a
    CRC is no MAC, so a re-sealed manifest could otherwise make a load
    read or quarantine files outside the store. *)

val verify : string -> (Load_report.t, string) result
(** Read-only {!load}: same classification, but nothing is moved,
    swept or written — the [fsck] probe. *)

val repair : string -> (Load_report.t, string) result
(** {!load}, then — unless the store was already clean — commit the
    salvaged members as a fresh consistent snapshot. Afterwards {!load}
    reports every remaining member [Ok]; what was dropped or
    quarantined is in the returned report. *)

val find : member list -> string -> string option
(** Content of the member at [path], if loaded. *)
