(* Schedule -> symbolic cost, and the workload-aware judgments built on it.

   The recurrence mirrors the cost simulator's loop nest: walk the derived
   variables in compute order, each keeping the U/C format of its level in
   A's storage (Costsim's "virtual spec").  Position counts:

     U level:  c_l = c_{l-1} * extent_l          (dense materialization)
     C level:  c_l = min(c_{l-1} * extent_l,     (structural product)
                         nnz,                    (one path per nonzero)
                         F_d * N_d when at root) (nonempty coordinates)

   The min is resolved *numerically* from the workload statistics — that is
   what makes the analysis workload-aware — but the chosen branch stays a
   symbolic monomial.  The total cost is the sum of per-level position
   counts, plus the leaf body (times the dense inner trip J), plus a
   log-factor term per discordant level (Costsim's binary-search penalty). *)

open Schedule

type stats = {
  dims : int array;
  fills : float array;
  nnz : float;
  avg_row : float;
}

type t = {
  algo : Algorithm.t;
  stats : stats;
  env : Expr.env;
  baseline : Expr.t;
  memo : (string, Expr.t) Hashtbl.t;
  lock : Mutex.t;
}

let stats_of_workload (wl : Machine_model.Workload.t) =
  let nnz = float_of_int wl.Machine_model.Workload.nnz in
  let dims = wl.Machine_model.Workload.dims in
  let fills =
    Array.mapi
      (fun d n ->
        let nonempty =
          Array.fold_left
            (fun acc c -> if c > 0 then acc + 1 else acc)
            0
            wl.Machine_model.Workload.counts.(d)
        in
        Float.max (1.0 /. float_of_int (max 1 n)) (float_of_int nonempty /. float_of_int (max 1 n)))
      dims
  in
  {
    dims = Array.copy dims;
    fills;
    nnz = Float.max 1.0 nnz;
    avg_row = Float.max 2.0 (nnz /. float_of_int (max 1 dims.(0)));
  }

let default_stats ~algo ?dims () =
  let rank = Algorithm.sparse_rank algo in
  let dims =
    match dims with Some d -> Array.copy d | None -> Array.make rank 4096
  in
  let maxd = Array.fold_left max 1 dims in
  let nnz = 8.0 *. float_of_int maxd in
  {
    dims;
    fills = Array.make rank 1.0;
    nnz;
    avg_row = Float.max 2.0 (nnz /. float_of_int (max 1 dims.(0)));
  }

let env_of_stats algo stats =
  {
    Expr.sizes = Array.map float_of_int stats.dims;
    fills = stats.fills;
    nnz_v = stats.nnz;
    j_v = Float.max 1.0 (float_of_int (Algorithm.dense_inner algo));
    logn_v = Float.max 1.0 (log stats.avg_row /. log 2.0);
  }

(* Format of each derived var under A's format schedule (as in Costsim). *)
let var_formats (spec : Format_abs.Spec.t) =
  let n = Format_abs.Spec.nlevels spec in
  let fmts = Array.make n Format_abs.Levelfmt.U in
  Array.iteri
    (fun lvl v -> fmts.(v) <- spec.Format_abs.Spec.formats.(lvl))
    spec.Format_abs.Spec.order;
  fmts

let extent_expr rank (spec : Format_abs.Spec.t) v =
  let d = Format_abs.Spec.var_dim v in
  let split = spec.Format_abs.Spec.splits.(d) in
  if Format_abs.Spec.var_is_top v then
    Expr.dim ~coeff:(1.0 /. float_of_int split) rank d
  else Expr.const rank (float_of_int split)

let cost_of env stats (s : Superschedule.t) =
  let rank = Array.length stats.dims in
  let spec = Superschedule.to_spec s ~dims:stats.dims in
  let vf = var_formats spec in
  let pick bounds =
    (* Numeric argmin with a strict comparison: ties keep the earlier,
       more structural bound. *)
    List.fold_left
      (fun best e -> if Expr.eval env e < Expr.eval env best then e else best)
      (List.hd bounds) (List.tl bounds)
  in
  let c = ref (Expr.const rank 1.0) in
  let terms = ref [] in
  Array.iteri
    (fun pos v ->
      let cand = Expr.mul !c (extent_expr rank spec v) in
      let next =
        if vf.(v) = Format_abs.Levelfmt.C then
          pick
            ([ cand; Expr.nnz_sym rank ]
            @
            if pos = 0 && Format_abs.Spec.var_is_top v then
              [ Expr.fill_dim rank (Format_abs.Spec.var_dim v) ]
            else [])
        else cand
      in
      c := next;
      terms := next :: !terms)
    s.Superschedule.compute_order;
  let body =
    if Algorithm.dense_inner s.Superschedule.algo > 0 then
      Expr.mul !c (Expr.j_sym rank)
    else !c
  in
  let discordant =
    Format_abs.Spec.discordant_levels spec
      ~compute_order:s.Superschedule.compute_order
  in
  let disc =
    if discordant > 0 then
      [
        Expr.scale (float_of_int discordant)
          (Expr.mul !c (Expr.log_sym rank));
      ]
    else []
  in
  List.fold_left Expr.add body (!terms @ disc)

(* The margin must exceed every constant factor the simulator can
   award a schedule that the symbolic model calls worse: vectorization of a
   dense inner loop (simd_width, 8 on the default machine) is the largest,
   with memory/parallel effects contributing small multiples on top.  32
   leaves a 4x cushion over the SIMD edge, so a pruned schedule — at least
   margin-times the baseline's symbolic work — cannot win on the simulated
   hardware. *)
let margin = 32.0

let create ~algo stats =
  let env = env_of_stats algo stats in
  {
    algo;
    stats;
    env;
    baseline = cost_of env stats (Superschedule.fixed_default algo);
    memo = Hashtbl.create 256;
    lock = Mutex.create ();
  }

let of_workload ~algo wl = create ~algo (stats_of_workload wl)

let algo t = t.algo

let env t = t.env

let cost t s =
  let key = Superschedule.key s in
  let cached =
    Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.memo key)
  in
  match cached with
  | Some e -> e
  | None ->
      (* Enforce the documented contract: a structurally illegal schedule
         has no meaningful cost (to_spec tolerates some illegalities). *)
      (match Diag.first_error (Superschedule.check s) with
      | Some d ->
          invalid_arg ("asymptotic cost of an illegal schedule: " ^ Diag.message d)
      | None -> ());
      let e = cost_of t.env t.stats s in
      Mutex.protect t.lock (fun () ->
          if not (Hashtbl.mem t.memo key) then Hashtbl.add t.memo key e);
      e

let baseline t = t.baseline

let verdict t s = Expr.compare (cost t s) t.baseline

let prunes t s =
  match verdict t s with
  | Expr.Dominates ->
      Expr.eval t.env (cost t s) > margin *. Expr.eval t.env t.baseline
  | Expr.Equal | Expr.Dominated | Expr.Incomparable -> false
  | exception Invalid_argument _ -> false (* illegal: the lint filter's job *)

(* --- asymptotic smells ------------------------------------------------- *)

let check t s =
  match Diag.first_error (Superschedule.check s) with
  | Some _ -> [] (* structurally illegal: legality diagnostics cover it *)
  | None ->
      let ds = ref [] in
      let add d = ds := d :: !ds in
      let dim_names = Algorithm.dim_names t.algo in
      let spec = Superschedule.to_spec s ~dims:t.stats.dims in
      (* S020: walk A's storage order numerically; an Uncompressed level
         that pushes the stored-position count far beyond nnz materializes
         dense fill over a sparse residue (the hypersparse-inner-dense
         smell). *)
      let p = ref 1.0 in
      Array.iteri
        (fun lvl v ->
          let d = Format_abs.Spec.var_dim v in
          let split = spec.Format_abs.Spec.splits.(d) in
          let ext =
            if Format_abs.Spec.var_is_top v then
              float_of_int
                ((t.stats.dims.(d) + split - 1) / split)
            else float_of_int split
          in
          match Format_abs.Spec.level_format spec lvl with
          | Format_abs.Levelfmt.C -> p := Float.min (!p *. ext) t.stats.nnz
          | Format_abs.Levelfmt.U ->
              let grown = !p *. ext in
              if ext > 1.0 && grown > 4.0 *. t.stats.nnz then
                add
                  (Diag.warning ~code:"WACO-S020"
                     ~loc:(Printf.sprintf "schedule.a_formats[%d]" lvl)
                     "uncompressed level %s materializes ~%.3g positions \
                      against %.3g nonzeros: dense loop over a sparse residue"
                     (Format_abs.Spec.var_name ~dim_names v)
                     grown t.stats.nnz);
              p := grown)
        spec.Format_abs.Spec.order;
      let e = cost t s in
      let b = t.baseline in
      (* S021: strictly worse than the fixed-CSR baseline, beyond margin. *)
      if prunes t s then
        add
          (Diag.warning ~code:"WACO-S021" ~loc:"schedule"
             "asymptotically dominated by the fixed-CSR baseline: O(%s) vs \
              O(%s)"
             (Expr.to_string ~dim_names e)
             (Expr.to_string ~dim_names b));
      (* S022: a dense product term of degree >= 2 in the dimension sizes. *)
      List.iter
        (fun (m : Expr.mono) ->
          let deg =
            Array.fold_left ( + ) 0 m.Expr.ns - Array.fold_left ( + ) 0 m.Expr.fs
          in
          if deg >= 2 then
            add
              (Diag.hint ~code:"WACO-S022" ~loc:"schedule.a_formats"
                 "cost carries the dense product term %s"
                 (Expr.to_string ~dim_names { e with Expr.terms = [ m ] })))
        e.Expr.terms;
      (* S023: discordant traversal's log factor reached the cost. *)
      if List.exists (fun (m : Expr.mono) -> m.Expr.logn > 0) e.Expr.terms
      then
        add
          (Diag.hint ~code:"WACO-S023" ~loc:"schedule.compute_order"
             "discordant traversal adds a log(nnz/row) search factor: O(%s)"
             (Expr.to_string ~dim_names e));
      List.rev !ds

let explain t s =
  Expr.to_string ~dim_names:(Algorithm.dim_names t.algo) (cost t s)

(* --- degraded-mode fallback ------------------------------------------- *)

let fallback_candidates algo =
  let fixed = Superschedule.fixed_default algo in
  let root_compressed =
    let f = Array.copy fixed.Superschedule.a_formats in
    f.(0) <- Format_abs.Levelfmt.C;
    { fixed with Superschedule.a_formats = f }
  in
  let col_major =
    if Algorithm.sparse_rank algo <> 2 then []
    else begin
      let top = Format_abs.Spec.top_var and bot = Format_abs.Spec.bottom_var in
      let a_order = [| top 1; top 0; bot 1; bot 0 |] in
      let a_formats =
        [|
          Format_abs.Levelfmt.U; Format_abs.Levelfmt.C;
          Format_abs.Levelfmt.U; Format_abs.Levelfmt.U;
        |]
      in
      [
        Superschedule.concordant_with_format algo
          ~splits:(Array.copy fixed.Superschedule.splits)
          ~a_order ~a_formats;
      ]
    end
  in
  (fixed, root_compressed :: col_major)

let fallback t =
  let fixed, variants = fallback_candidates t.algo in
  List.fold_left
    (fun best c ->
      (* Displace the incumbent only on a strict asymptotic win that is
         also a clear numeric win — fixed CSR stays the answer whenever
         the workload does not decisively favour a variant. *)
      match Expr.compare (cost t c) (cost t best) with
      | Expr.Dominated
        when Expr.eval t.env (cost t c) *. margin
             <= Expr.eval t.env (cost t best) ->
          c
      | _ -> best)
    fixed variants
