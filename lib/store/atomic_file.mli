(** Durable single-file writes: the only place in the tree allowed to
    call [open_out] / [Sys.rename] on a persistence path (enforced by a
    [scripts/check.sh] grep-gate).

    {!write} is the atomic primitive: write [path ^ ".aladin-tmp"],
    fsync, rename over [path], fsync the directory. A crash at any point
    leaves either the old file or the new one, never a torn mix — the
    temp file a crash may leave behind is swept by the snapshot layer.
    Files are only ever written whole, never appended to, so no reader
    has to detect a torn tail. All writes are {!Fault}-aware. *)

val temp_suffix : string
(** [".aladin-tmp"] — what interrupted writes leave behind and sweeps
    look for. *)

val write : string -> string -> unit
(** Atomic: temp → fsync → rename → directory fsync.
    @raise Sys_error on I/O failure, @raise Fault.Killed under an armed
    fault. *)

val write_raw : string -> string -> unit
(** Non-atomic fsynced write straight to [path] — only safe for files
    that are invisible until a later {!write} commits a reference to
    them (snapshot members inside an uncommitted generation
    directory). *)

val link : string -> string -> bool
(** Hard-link [src] (an already fsynced file) as [dst]; [false] when the
    filesystem refuses, so the caller writes [dst] instead. Counts as one
    {!Fault} operation.
    @raise Fault.Killed under an armed fault. *)

val read : string -> string
(** Whole file. @raise Sys_error *)

val mkdir_p : string -> unit
(** Create the directory and any missing parents (no-op when present).
    @raise Sys_error *)

val fsync_dir : string -> unit
(** Best-effort directory fsync (ignored on filesystems that refuse). *)
