(** The repository's hand-rolled JSON pieces (the toolchain has no JSON
    library): one string escaper for every emitter, and one number scanner
    for reading back the flat JSON the repository itself writes. *)

val escape : string -> string
(** A string's JSON-escaped body (no surrounding quotes). *)

val number_field : string -> string -> string option
(** [number_field text key] is the number token right after the first
    ["key":] in [text] (spaces skipped), or [None] if there is none.  The
    first occurrence anywhere wins, nested objects included: a caller that
    wants one section of a document narrows [text] to it first. *)
