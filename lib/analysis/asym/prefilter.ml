(* One rejection-reason type for every schedule pre-filter slot, so the
   legality filter (PR 1) and the asymptotic filter report through the same
   counters wherever they run. *)

open Schedule

type reason = Lint | Asym

type counts = { mutable lint : int; mutable asym : int }

let zero_counts () = { lint = 0; asym = 0 }

let total c = c.lint + c.asym

let tally c = function
  | Lint -> c.lint <- c.lint + 1
  | Asym -> c.asym <- c.asym + 1

type t = { reason : reason; accepts : Superschedule.t -> bool }

let lint = { reason = Lint; accepts = Analysis.Lint.accepts }

let asym analyzer =
  { reason = Asym; accepts = (fun s -> not (Analyzer.prunes analyzer s)) }

let rec reject filters counts s =
  match filters with
  | [] -> None
  | f :: tl ->
      if f.accepts s then reject tl counts s
      else begin
        tally counts f.reason;
        Some f.reason
      end
