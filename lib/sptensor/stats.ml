(* Sparsity-pattern statistics.

   These feed (a) the HumanFeature baseline extractor (Fig. 15), (b) the
   analytic cost simulator (block fill ratios, per-chunk work histograms), and
   (c) the BestFormat baseline's candidate ranking. *)

type t = {
  nrows : int;
  ncols : int;
  nnz : int;
  density : float;
  row_nnz_mean : float;
  row_nnz_std : float;
  row_nnz_max : int;
  row_nnz_cv : float; (* coefficient of variation: skew indicator *)
  col_nnz_mean : float;
  col_nnz_std : float;
  avg_diag_distance : float; (* mean |i - j|: DIA-format affinity *)
  empty_rows : int;
}

(* Sample mean and population standard deviation of integer counts. *)
let mean_std counts =
  let n = Array.length counts in
  if n = 0 then (0.0, 0.0)
  else begin
    let sum = Array.fold_left ( + ) 0 counts in
    let mean = float_of_int sum /. float_of_int n in
    let var =
      Array.fold_left
        (fun acc c ->
          let d = float_of_int c -. mean in
          acc +. (d *. d))
        0.0 counts
      /. float_of_int n
    in
    (mean, sqrt var)
  end

let compute (m : Coo.t) =
  let row_counts = Coo.nnz_per_row m in
  let col_counts = Coo.nnz_per_col m in
  let row_mean, row_std = mean_std row_counts in
  let col_mean, col_std = mean_std col_counts in
  let nnz = Coo.nnz m in
  let diag_sum = ref 0.0 in
  Coo.iter (fun i j _ -> diag_sum := !diag_sum +. Float.abs (float_of_int (i - j))) m;
  {
    nrows = m.Coo.nrows;
    ncols = m.Coo.ncols;
    nnz;
    density = Coo.density m;
    row_nnz_mean = row_mean;
    row_nnz_std = row_std;
    row_nnz_max = Array.fold_left max 0 row_counts;
    row_nnz_cv = (if row_mean > 0.0 then row_std /. row_mean else 0.0);
    col_nnz_mean = col_mean;
    col_nnz_std = col_std;
    avg_diag_distance = (if nnz > 0 then !diag_sum /. float_of_int nnz else 0.0);
    empty_rows = Array.fold_left (fun acc c -> if c = 0 then acc + 1 else acc) 0 row_counts;
  }

(* Statistics of the bi x bk blocking of the pattern: how many blocks are
   non-empty and how full they are.  Determines the zero-fill cost of dense
   blocked (UCU/UCUU) formats and the locality benefit of sparse blocking. *)
type block_stats = {
  bi : int;
  bk : int;
  nonempty_blocks : int;
  avg_fill : float; (* nnz / (nonempty_blocks * bi * bk) *)
  max_block_nnz : int;
}

let block_stats (m : Coo.t) ~bi ~bk =
  if bi <= 0 || bk <= 0 then invalid_arg "Stats.block_stats: block dims must be positive";
  let tbl = Hashtbl.create 1024 in
  let ncols_blocks = ((m.Coo.ncols + bk - 1) / bk) + 1 in
  Coo.iter
    (fun i j _ ->
      let key = ((i / bi) * ncols_blocks) + (j / bk) in
      match Hashtbl.find_opt tbl key with
      | Some c -> Hashtbl.replace tbl key (c + 1)
      | None -> Hashtbl.add tbl key 1)
    m;
  let nonempty = Hashtbl.length tbl in
  let max_nnz = Hashtbl.fold (fun _ c acc -> max c acc) tbl 0 in
  let nnz = Coo.nnz m in
  {
    bi;
    bk;
    nonempty_blocks = nonempty;
    avg_fill =
      (if nonempty = 0 then 0.0
       else float_of_int nnz /. (float_of_int nonempty *. float_of_int (bi * bk)));
    max_block_nnz = max_nnz;
  }

(* Work per contiguous group of [chunk] rows — the unit the dynamic-scheduling
   simulator hands to threads.  Work is nnz-proportional. *)
let chunk_work (row_counts : int array) ~chunk =
  if chunk <= 0 then invalid_arg "Stats.chunk_work: chunk must be positive";
  let nrows = Array.length row_counts in
  let nchunks = (nrows + chunk - 1) / chunk in
  let work = Array.make (max nchunks 1) 0 in
  Array.iteri (fun i c -> work.(i / chunk) <- work.(i / chunk) + c) row_counts;
  work

(* Float variant for weighted (per-kernel) work distributions, where a row's
   work is flops-proportional rather than nnz-proportional. *)
let chunk_work_f (row_work : float array) ~chunk =
  if chunk <= 0 then invalid_arg "Stats.chunk_work_f: chunk must be positive";
  let nrows = Array.length row_work in
  let nchunks = (nrows + chunk - 1) / chunk in
  let work = Array.make (max nchunks 1) 0.0 in
  Array.iteri (fun i c -> work.(i / chunk) <- work.(i / chunk) +. c) row_work;
  work

(* Fixed-length feature vector for the HumanFeature extractor baseline.
   The paper's HumanFeature uses (#rows, #cols, #nnz); we expose the richer
   classic hand-crafted set too so the ablation can use either. *)
let human_features ?(rich = false) (s : t) =
  let base = [| float_of_int s.nrows; float_of_int s.ncols; float_of_int s.nnz |] in
  if not rich then base
  else
    Array.append base
      [|
        s.density;
        s.row_nnz_mean;
        s.row_nnz_std;
        float_of_int s.row_nnz_max;
        s.row_nnz_cv;
        s.col_nnz_mean;
        s.col_nnz_std;
        s.avg_diag_distance;
        float_of_int s.empty_rows;
      |]

let pp ppf s =
  Fmt.pf ppf "%dx%d nnz=%d density=%.4f%% row_cv=%.2f" s.nrows s.ncols s.nnz
    (100.0 *. s.density) s.row_nnz_cv
