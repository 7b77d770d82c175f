(** Write-ahead integration journal: an append-only log of intent,
    commit and reset records with per-line CRC-32, beside an ordinary
    snapshot store that holds the checkpointed state.

    Layout:
    {v
    <dir>/JOURNAL   header (the plan) + intent/commit/reset records
    <dir>/store/    an ordinary {!Snapshot} store; each commit record
                    names the generation that holds its step's result
    v}

    Protocol, per step: append an {!intent} record; do the work; save
    the whole state into {!store_dir} as a new snapshot generation; only
    then append the {!commit} record naming that generation. A process
    killed at any instant therefore leaves one of three states:

    - kill before the commit append: the step is uncommitted (a pending
      intent at most) — the resumer recomputes it. If the kill landed
      after the store's manifest rename, the store already holds the
      step; recomputing it replaces it with the same result;
    - kill {e inside} an append: a torn trailing [JOURNAL] line whose
      CRC cannot verify — dropped (and counted) on replay, leaving the
      previous record in force;
    - kill after the commit append: the step is committed and the store
      holds it — the resumer loads the store instead of recomputing.

    A {!reset} record voids every record before it: the resumer appends
    one when the store cannot stand for the commits (damaged, missing,
    or lacking a committed step) before it re-runs the whole plan, so
    those commits are neither restored nor compared against the new
    store's generations again.

    Every line is a {!Records.record} whose payload is a {!Serial.record}
    of tab-separated escaped fields. The header carries
    {!format_version} (replay refuses any other) and the caller's [meta]
    key=value pairs — the integration {e plan}. All writes are
    {!Fault}-aware, so chaos sweeps can kill at any byte, operation or
    step boundary. Single-process, single-writer. *)

type committed = {
  seq : int;
  step : string;
  generation : int;  (** store generation holding this step's result *)
  info : (string * string) list;
}

type replay = {
  meta : (string * string) list;  (** header key=values, in order *)
  committed : committed list;
      (** commit records since the last {!reset}, in append order *)
  pending : (int * string) option;
      (** an intent with no matching commit — the step in flight when
          the process died *)
  dropped : int;  (** torn/corrupt trailing records dropped *)
}

type t
(** Open handle; holds no file descriptor, only the next sequence
    number. *)

val format_version : int
(** 2. Version 1 journals checkpointed each step in a layout of their
    own; {!replay} refuses them with a message to re-run the
    integration. *)

val exists : string -> bool
(** A [JOURNAL] file is present in the directory. *)

val store_dir : string -> string
(** [<dir>/store], the snapshot store the commit records refer to. *)

val dir : t -> string
(** The journal directory the handle appends to. *)

val create : string -> meta:(string * string) list -> (t, string) result
(** Start a fresh journal (creating the directory). Refuses an existing
    journal (resume it instead), a non-empty foreign directory, and
    meta keys containing ['=']. *)

val replay : string -> (replay, string) result
(** Read-only replay of the record log. [Error] only for journal-level
    damage (missing/unparseable header, a version other than
    {!format_version}); torn trailing records are dropped and counted,
    not errors. *)

val open_resume : string -> (t * replay, string) result
(** {!replay}, plus a handle positioned after the highest sequence seen
    since the last {!reset} — new steps append monotonically. A torn
    trailing record is first cut off the log (rewritten atomically as
    the records replay kept), so subsequent appends start on a clean
    line boundary instead of concatenating onto garbage. *)

val intent : t -> step:string -> int
(** Append an intent record; returns the step's sequence number.
    @raise Sys_error on I/O failure, @raise Fault.Killed under an armed
    fault. *)

val reset : t -> unit
(** Append a reset record: replay ignores every record before it, and
    sequence numbers start again from 0.
    @raise Sys_error, @raise Fault.Killed. *)

val commit :
  t ->
  seq:int ->
  step:string ->
  generation:int ->
  info:(string * string) list ->
  committed
(** Append the commit record for step [seq]: [generation] is the store
    generation the caller has already saved the step's result into, and
    [info] is free-form key/value context.
    @raise Sys_error, @raise Fault.Killed. *)
