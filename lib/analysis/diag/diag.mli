(** The diagnostics engine behind [waco lint] and the static analysis passes:
    stable codes ([WACO-S012], [WACO-P001], ...), severities, structured
    locations, and text/JSON renderers.  Passes accumulate diagnostics instead
    of throwing so one run reports every problem; severity maps to the CLI
    exit code (errors 2, warnings 1, hints/clean 0). *)

type severity = Error | Warning | Hint

type t = {
  code : string;  (** stable identifier, e.g. ["WACO-S012"] *)
  severity : severity;
  loc : string;  (** structured location, e.g. ["schedule.compute_order"] *)
  message : string;
}

val make :
  severity -> code:string -> loc:string -> ('a, unit, string, t) format4 -> 'a

val error : code:string -> loc:string -> ('a, unit, string, t) format4 -> 'a

val warning : code:string -> loc:string -> ('a, unit, string, t) format4 -> 'a

val hint : code:string -> loc:string -> ('a, unit, string, t) format4 -> 'a

val code : t -> string

val severity : t -> severity

val loc : t -> string

val message : t -> string

val is_error : t -> bool

val relocate : prefix:string -> t -> t
(** Prefix the location with an outer context (e.g. ["tuples.txt:14"]). *)

val count : severity -> t list -> int

val first_error : t list -> t option

val exit_code : t list -> int
(** 0 clean or hints only / 1 warnings / 2 errors. *)

val sort : t list -> t list
(** Errors first, then by code, then by location (stable). *)

val to_string : t -> string
(** ["error[WACO-S012] schedule.compute_order: ..."]. *)

val pp : Format.formatter -> t -> unit

val summary : t list -> string

val render_text : t list -> string

val to_json : t -> string

val render_json : t list -> string
