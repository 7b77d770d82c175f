(** Tiny blocking HTTP client for [aladin serve] — enough for the
    [aladin fetch] subcommand, the smoke test in scripts/check.sh and
    the load generator in bench/, without any external tooling. One
    request per connection, mirroring the server's
    [Connection: close]. *)

val request :
  ?host:string -> port:int -> string -> (Http.response, string) result
(** [request ~port target] sends [GET target] to [host] (default
    127.0.0.1) and returns the response {!Http.read_response} reads: the
    head, then exactly [Content-Length] body bytes into one buffer of
    that size (to end of file when the head has no [Content-Length]).
    A 10 s timeout bounds both connect and each read. [Error]
    on connection failure, timeout, an unparsable head, a body cut short
    before [Content-Length] bytes, or a body over 16 MiB (a larger
    [Content-Length] is refused before anything is allocated) — never
    raises. *)
