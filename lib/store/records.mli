(** Per-record checksummed line codec.

    A "records" snapshot member (the metadata repository, feedback,
    sources and constraints files) is a document of newline-terminated
    lines. On disk each line is prefixed with its own CRC-32, under a
    header carrying the expected line count:
    {v
    aladin-records	1	<count>
    <crc32 hex>	<line>
    ...
    v}
    so a corrupted file can be salvaged record-by-record: lines whose
    checksum still matches are kept, the rest are dropped and counted.
    A line may itself contain tabs — only the first tab separates the
    checksum from the payload.

    Each function makes one pass over its input by index: it finds each
    newline, checks a record's 8 hex digits in place against the CRC-32
    of its payload range, and appends the payload to one buffer. *)

val encode : string -> string
(** The logical document (newline-terminated lines; a missing final
    newline is tolerated and normalized) → the stored bytes. *)

val decode : string -> string option
(** Strict inverse of {!encode}: [None] unless the header parses, the
    count matches and every line checksum verifies. *)

val decode_salvage : string -> (string * int) option
(** Best effort: keep every line whose checksum matches, return the
    surviving document and the number of records dropped (corrupted
    lines, plus any shortfall against the header's count — records a
    truncation cut off entirely). [None] when nothing is recoverable:
    no parseable header and no valid line. *)

val record : string -> string
(** One stored record line, without its newline: the payload's CRC-32
    in hex, a tab, then the payload. The journal's header is framed
    the same way. *)

val parse_record : string -> string option
(** Inverse of {!record}: the payload, when its checksum verifies. *)
