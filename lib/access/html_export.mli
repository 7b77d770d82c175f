(** Static-site export of the object web.

    §1: "The discovered objects correspond to Web pages, and the discovered
    links correspond to HTML links. Users may traverse this web of
    biological objects using a generic front-end very much like they travel
    the web using their browser." This module materializes that analogy:
    one HTML page per primary object with its fields, annotations,
    duplicates (conflicts highlighted) and hyperlinked discovered links,
    plus an index page per source. *)

val write_site : Browser.t -> dir:string -> int
(** Write index.html plus one page per object into [dir] (created when
    missing). Returns the number of object pages written. *)
