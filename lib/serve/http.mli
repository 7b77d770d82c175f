(** Minimal dependency-free HTTP/1.1, the wire layer of [aladin serve].

    Only what a query-serving daemon and its client need: parse a request
    head, render a response with [Content-Length], and move both over a
    file descriptor. Connections are one-request ([Connection: close]);
    request bodies are read and discarded. Parsing is pure
    ({!parse_request}, {!parse_response}) so it can be tested without
    sockets. *)

type request = {
  meth : string;  (** verbatim, e.g. ["GET"] *)
  target : string;  (** raw request target, path + query *)
  path : string;  (** percent-decoded path, no query string *)
  query : (string * string) list;  (** decoded parameters, arrival order *)
  headers : (string * string) list;  (** names lowercased *)
}

type response = {
  status : int;
  headers : (string * string) list;
  body : string;
}

val response :
  ?headers:(string * string) list -> ?content_type:string -> int -> string ->
  response
(** [response status body]; [content_type] defaults to
    ["text/plain; charset=utf-8"]. *)

val reason : int -> string
(** Standard reason phrase (["OK"], ["Service Unavailable"], ...). *)

val header : response -> string -> string option
(** The first header of that name, compared ASCII case-insensitively. *)

val with_header : response -> string -> string -> response
(** Replace-or-add one header. *)

val query_param : request -> string -> string option

val normalize_target : request -> string
(** Canonical form of the request target for cache keying: decoded path
    plus query parameters sorted by name (stable for equal names), so
    [/search?q=x&limit=5] and [/search?limit=5&q=x] key identically. *)

val parse_request : string -> (request, string) result
(** Parse a request head (request line + headers, no body). *)

val parse_response : string -> (response, string) result
(** Parse full response wire bytes (status line, headers, body). With a
    [Content-Length] the body is that many bytes (anything after them is
    ignored), and fewer bytes after the head, or a length that is not a
    non-negative integer, is an [Error]. Without one the body is
    everything after the head. *)

val pct_encode : string -> string
(** Encode everything but RFC 3986 unreserved characters. *)

val json_string : string -> string
(** JSON string literal with quotes, escaping as needed. *)

val render : response -> string
(** Full wire bytes: status line, headers (adding [Content-Length] and
    [Connection: close]), blank line, body — built in one buffer of the
    exact size, so the body is copied once. *)

(** {2 Descriptor I/O} — confined to lib/serve by scripts/check.sh. *)

val read_request : Unix.file_descr -> (request, string) result
(** Read and parse one request head from the descriptor (honouring its
    receive timeout), then read and discard any [Content-Length] body.
    [Error] on EOF, timeout, malformed head, or a head over 16 KiB. *)

val read_response : Unix.file_descr -> (response, string) result
(** Read one response as {!parse_response} reads its bytes: the head,
    then exactly [Content-Length] body bytes into one buffer of that
    size, with no read past them; without [Content-Length], everything
    up to end of file. [Error] on a body cut short, a body over 16 MiB
    (a larger [Content-Length] is refused before anything is
    allocated), a timeout, EOF before the head ends, or an unparsable
    head. *)

val write : Unix.file_descr -> string -> bool
(** Write the bytes as they are (a stored or freshly {!render}ed
    response); [false] if the peer vanished (EPIPE/ECONNRESET) — never
    raises. *)
