(** Typed import failures (step 1 of the pipeline).

    A whole-source failure is an {!t}; a recoverable per-record failure
    (one bad entry in a flat file, one ragged CSV row) is a
    {!record_error} collected alongside the partial catalog instead of
    aborting the import. *)

type record_error = {
  index : int;  (** 0-based record (or data-row) number within the source *)
  reason : string;
}

type kind =
  | Unrecognized  (** the format sniffer found nothing *)
  | Parse  (** the document matched a format but could not be parsed *)
  | Io  (** the file or directory could not be read *)

type t = { source : string; kind : kind; detail : string }

val make : source:string -> kind:kind -> string -> t

val to_string : t -> string
(** ["<source>: <kind> error: <detail>"]. *)

val record_error_to_string : record_error -> string
