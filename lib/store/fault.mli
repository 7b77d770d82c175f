(** Crash fault injection: the pipeline-level chaos harness.

    Three independent armaments, each modelling "the process dies right
    here":

    - {!arm} [~bytes]: every byte the store writes — and every commit
      rename, which costs one unit — draws down the budget; the write
      that crosses it is truncated at the exact byte and {!Killed} is
      raised, leaving a torn file on disk.
    - {!arm_ops} [~ops]: every store {e operation} (a file write, a
      hard link, a commit rename) draws one unit; the operation that
      crosses the budget raises {!Killed} before doing anything.
    - {!arm_step} [~index]: pipeline code marks its step boundaries with
      {!step}; crossing boundary number [index] (0-based, counted since
      {!reset_counters}) raises {!Killed}.

    The snapshot protocol must leave the previous consistent state
    loadable no matter where the kill lands (a journaled integration
    resumes from exactly that state); the [t_store] harness sweeps byte
    budgets over every offset of a save, and [examples/kill_resume.ml]
    sweeps step/op/byte kills across the whole integration pipeline and
    proves [--resume] restores a byte-identical warehouse.

    Disarmed (the default), the hooks cost a few branches and counter
    increments. Single-process, single-writer: the budgets are plain
    state, like the crash they model. *)

exception Killed
(** The simulated crash. Escapes [Snapshot.save] / [Journal.create] /
    [Atomic_file] calls and journaled pipeline step boundaries; never
    raised when disarmed. *)

val arm : bytes:int -> unit
(** Kill the next save after [bytes] budget units. *)

val arm_ops : ops:int -> unit
(** Kill the store operation that crosses the [ops] budget. *)

val arm_step : index:int -> unit
(** Kill at pipeline step boundary [index] (0-based over the {!step}
    calls counted since {!reset_counters}). *)

val disarm : unit -> unit
(** Drop every armament (counters are left running; see
    {!reset_counters}). *)

val reset_counters : unit -> unit
(** Zero the byte/op/step counters — call before a run whose kill
    points you want to enumerate, and before any {!arm_step} run. *)

val counters : unit -> int * int * int
(** [(bytes, ops, steps)] observed since {!reset_counters} — the
    coordinate space the sweeps enumerate. *)

val request : int -> int
(** [request n] asks to write [n] bytes; returns how many are permitted
    (always [n] when disarmed). The caller must write exactly that many
    and raise {!Killed} itself if short — letting it flush the torn
    prefix to disk first, like a real partial write. *)

val check_op : unit -> unit
(** Charge one {e byte-budget} unit for a non-byte operation (the commit
    rename); raises {!Killed} when that budget is exhausted. *)

val op : unit -> unit
(** Charge one operation against the {!arm_ops} budget (and count it);
    raises {!Killed} when that budget is exhausted. *)

val step : string -> unit
(** Mark a pipeline step boundary (the name is for documentation only);
    raises {!Killed} when this is the {!arm_step}-armed boundary. *)
