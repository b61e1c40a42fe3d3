(* The diagnostics engine behind `waco lint` and the static analysis passes.

   A diagnostic is a stable machine-readable code (WACO-S012, WACO-P001, ...),
   a severity, a structured location string ("schedule.compute_order",
   "tuples.txt:14", "packed.level[1].crd[3]") and a human message.  Passes
   accumulate diagnostics instead of throwing, so one lint run reports every
   problem; the legacy [validate] entry points raise the first error-level
   diagnostic to keep their exception contract.

   Severity maps to the CLI exit code: errors -> 2, warnings -> 1, hints and
   clean runs -> 0. *)

type severity = Error | Warning | Hint

type t = {
  code : string; (* stable identifier, e.g. "WACO-S012" *)
  severity : severity;
  loc : string; (* structured location path *)
  message : string;
}

let severity_rank = function Error -> 2 | Warning -> 1 | Hint -> 0

let severity_name = function Error -> "error" | Warning -> "warning" | Hint -> "hint"

let make severity ~code ~loc fmt =
  Printf.ksprintf (fun message -> { code; severity; loc; message }) fmt

let error ~code ~loc fmt = make Error ~code ~loc fmt

let warning ~code ~loc fmt = make Warning ~code ~loc fmt

let hint ~code ~loc fmt = make Hint ~code ~loc fmt

let code d = d.code

let severity d = d.severity

let loc d = d.loc

let message d = d.message

let is_error d = d.severity = Error

(* Re-home a diagnostic under an outer location (e.g. the dataset pass
   re-emits schedule legality diagnostics prefixed with their file line). *)
let relocate ~prefix d = { d with loc = prefix ^ ":" ^ d.loc }

let count sev ds = List.length (List.filter (fun d -> d.severity = sev) ds)

let first_error ds = List.find_opt is_error ds

let max_severity = function
  | [] -> None
  | ds ->
      Some
        (List.fold_left
           (fun acc d -> if severity_rank d.severity > severity_rank acc then d.severity else acc)
           Hint ds)

(* CLI contract: 0 clean (or hints only) / 1 warnings / 2 errors. *)
let exit_code ds =
  match max_severity ds with
  | Some Error -> 2
  | Some Warning -> 1
  | Some Hint | None -> 0

(* Stable presentation order: errors first, then by code, then by location;
   emission order breaks the remaining ties. *)
let sort ds =
  List.stable_sort
    (fun a b ->
      let c = compare (severity_rank b.severity) (severity_rank a.severity) in
      if c <> 0 then c
      else
        let c = compare a.code b.code in
        if c <> 0 then c else compare a.loc b.loc)
    ds

(* --- Text rendering --- *)

let to_string d =
  Printf.sprintf "%s[%s] %s: %s" (severity_name d.severity) d.code d.loc d.message

let pp ppf d = Fmt.string ppf (to_string d)

let summary ds =
  Printf.sprintf "%d error(s), %d warning(s), %d hint(s)" (count Error ds)
    (count Warning ds) (count Hint ds)

let render_text ds =
  match ds with
  | [] -> "no diagnostics\n"
  | ds ->
      let lines = List.map to_string (sort ds) in
      String.concat "\n" lines ^ "\n" ^ summary ds ^ "\n"

(* --- JSON rendering (hand-rolled; no JSON dependency in the container) --- *)

let to_json d =
  Printf.sprintf "{\"code\":\"%s\",\"severity\":\"%s\",\"loc\":\"%s\",\"message\":\"%s\"}"
    (Json.escape d.code) (severity_name d.severity) (Json.escape d.loc)
    (Json.escape d.message)

let render_json ds =
  let sorted = sort ds in
  Printf.sprintf
    "{\"errors\":%d,\"warnings\":%d,\"hints\":%d,\"exit_code\":%d,\"diagnostics\":[%s]}\n"
    (count Error ds) (count Warning ds) (count Hint ds) (exit_code ds)
    (String.concat "," (List.map to_json sorted))
