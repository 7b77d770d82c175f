(** The socket front of [aladin serve]: accept loop, bounded admission
    queue with backpressure, batch dispatch onto {!Service}, and
    graceful drain.

    The loop is single-domain (parallelism lives inside
    {!Service.render_batch}'s pool fan-out) and batch-oriented: it
    accepts a burst of connections, answers [/healthz], [/metrics] and
    malformed requests inline, queues up to [max_queue] real requests —
    everything past that is refused with [503] and [Retry-After] before
    any compute is spent — then evaluates the whole batch
    ({!Service.render_batch}) and writes responses back in admission
    order. Every response is written as bytes, in one write: a cache
    hit as the string the service stored, with no rendering or copy.

    [SIGINT]/[SIGTERM] (or an external [stop] flag) trigger a graceful
    drain: stop accepting, finish every admitted request, write all
    responses, close the listener, restore the previous signal
    handlers, and return the final {!stats}. *)

type config = {
  host : string;  (** bind address, default ["127.0.0.1"] *)
  port : int;  (** [0] = ephemeral; see [on_ready] *)
  max_queue : int;  (** admitted requests per batch; excess gets 503 *)
}
(** A connection whose request head has not arrived within 2 s is
    dropped. *)

val default_config : config
(** 127.0.0.1:8080, queue of 64. *)

type stats = {
  served : int;  (** responses written from the batch path *)
  inline_served : int;  (** healthz/metrics/parse-error answered inline *)
  rejected : int;  (** 503s due to a full admission queue *)
  read_errors : int;  (** connections dropped before a valid head *)
  write_errors : int;  (** peers gone before the response landed *)
  batches : int;  (** batch dispatches run *)
  max_batch : int;  (** largest admitted batch *)
}

val run :
  ?config:config ->
  ?stop:bool Atomic.t ->
  ?on_ready:(int -> unit) ->
  Service.t ->
  stats
(** Serve until [stop] flips (the handler installed on SIGINT/SIGTERM
    sets it too). [on_ready] fires once with the actual bound port —
    the way to use [port = 0]. Blocks the calling domain.
    @raise Unix.Unix_error when the listener cannot be set up (bind in
    use, privileged port, ...). *)
