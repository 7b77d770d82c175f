(** The interactive front-end: a small command language over an access
    engine (the "generic front-end" of §1 in terminal form). A client of
    {!Engine} like every other entry point: it builds no access
    structure of its own, and [reject] goes through {!Engine.reject_link}.
    Pure interpreter — the CLI wraps it in a read-eval-print loop.

    Commands:
    {v
    help                         this list
    sources                      integrated sources + discovered primaries
    view <accession>             an object's page (resolves across sources)
    view <source> <accession>    disambiguated
    follow <n>                   follow link n of the last viewed object
    search <terms...>            ranked full-text search
    sql <query>                  SQL over the warehouse
    links <accession>            links of an object
    dups                         duplicate clusters
    reject <n>                   reject link n of the last viewed object
    save <dir>                   persist the warehouse
    quit                         leave
    v} *)

type t

val create : Engine.t -> t

val repl : t -> in_channel -> out_channel -> unit
(** Prompted loop until [quit] or EOF. *)
