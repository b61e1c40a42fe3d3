(* Measurement helpers shared by the workloads: the monotonic clock,
   process CPU time, order statistics, per-layer span accumulators, the
   host block and the JSON result line. *)

let now = Robust.mono_now

(* User + system CPU seconds of the whole process, every domain included. *)
let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile, [q] in (0, 1]. *)
let percentile a q =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then Float.nan
  else s.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median a = percentile a 0.5

let mean a =
  if Array.length a = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let geomean a =
  if Array.length a = 0 then Float.nan
  else exp (mean (Array.map log a))

(* Per-layer spans.  A layer accumulates every span recorded under its
   name; [per] divides its total by the number of operations it served. *)
module Layers = struct
  type t = (string, float ref) Hashtbl.t

  let create () : t = Hashtbl.create 16

  let add (t : t) name v =
    match Hashtbl.find_opt t name with
    | Some r -> r := !r +. v
    | None -> Hashtbl.add t name (ref v)

  let span t name f =
    let r, dt = time f in
    add t name dt;
    r

  let total t name = match Hashtbl.find_opt t name with Some r -> !r | None -> 0.0
end

(* Output checks: every failed check is kept (and printed) so one run
   reports all of them, and any failure makes the run incorrect. *)
module Checks = struct
  let failures = ref []

  let fail msg = failures := msg :: !failures

  let require cond msg = if not cond then fail msg

  let ok () = !failures = []

  let report () =
    List.iter (fun m -> prerr_endline ("perfbench: check failed: " ^ m))
      (List.rev !failures)
end

let git_rev () =
  (* The checkout the benchmark runs in need not be a git repository. *)
  let read f =
    try
      let ic = open_in f in
      let l = input_line ic in
      close_in ic;
      Some (String.trim l)
    with _ -> None
  in
  match read ".git/HEAD" with
  | Some h when String.length h > 5 && String.sub h 0 5 = "ref: " -> (
      match read (Filename.concat ".git" (String.sub h 5 (String.length h - 5))) with
      | Some r -> r
      | None -> "unknown")
  | Some h -> h
  | None -> "unknown"

let json_string s = Printf.sprintf "%S" s

let host_json () =
  Printf.sprintf
    "{\"nproc\": %d, \"ocaml\": %s, \"git_rev\": %s, \"waco_domains\": %s}"
    (Domain.recommended_domain_count ())
    (json_string Sys.ocaml_version)
    (json_string (git_rev ()))
    (json_string (Option.value ~default:"unset" (Sys.getenv_opt "WACO_DOMAINS")))

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let metrics_json (ms : (string * float * string) list) =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float v) unit)
         ms)
  ^ "}"
