(* A workload = one sparse operand plus memoized derived statistics.

   The cost simulator evaluates many SuperSchedules against the same operand
   (dataset generation samples ~tens per matrix; the tuner measures a top-k),
   so per-format storage analyses and per-dimension slice histograms are
   cached here. *)

open Sptensor

type t = {
  id : string;
  dims : int array;
  nnz : int;
  coords : int array array; (* coords.(d).(e) = entry e's logical coord on dim d *)
  vals : float array; (* entry values, same entry order *)
  counts : int array array; (* counts.(d).(x) = nonzeros with logical coord x on dim d *)
  storage_cache : (string, Format_abs.Storage_model.t) Hashtbl.t;
  kernel_work_cache : (string, float array) Hashtbl.t;
      (* keyed on (algo, dim, split, is_top): the weighted distributions the
         per-kernel dynamic-scheduling simulation chunks up *)
  cache_lock : Mutex.t;
      (* The parallel measurement paths share one workload across domains;
         Hashtbl is not safe under concurrent mutation. *)
}

(* Flat per-dimension coordinate arrays: the storage model's interning pass
   reads one unboxed int array per level, and a COO or tensor source hands
   its own arrays over without a copy. *)
let build ~id ~dims ~coords ~vals =
  let nnz = Array.length vals in
  if Array.length coords <> Array.length dims
     || Array.exists (fun cs -> Array.length cs <> nnz) coords
  then invalid_arg "Workload.build: coordinate arrays do not match dims and vals";
  let counts =
    Array.mapi
      (fun d cs ->
        let c = Array.make dims.(d) 0 in
        Array.iter (fun x -> c.(x) <- c.(x) + 1) cs;
        c)
      coords
  in
  {
    id;
    dims;
    nnz;
    coords;
    vals;
    counts;
    storage_cache = Hashtbl.create 64;
    kernel_work_cache = Hashtbl.create 16;
    cache_lock = Mutex.create ();
  }

let of_coo ?(id = "coo") (m : Coo.t) =
  build ~id ~dims:[| m.Coo.nrows; m.Coo.ncols |] ~coords:[| m.Coo.rows; m.Coo.cols |]
    ~vals:m.Coo.vals

let of_tensor3 ?(id = "tensor3") (t : Tensor3.t) =
  let open Tensor3 in
  build ~id ~dims:[| t.dim_i; t.dim_k; t.dim_l |] ~coords:[| t.is; t.ks; t.ls |]
    ~vals:t.vals

(* Memoization key of the format part of a spec. *)
let spec_key (spec : Format_abs.Spec.t) =
  let buf = Buffer.create 32 in
  Array.iter (fun s -> Buffer.add_string buf (string_of_int s); Buffer.add_char buf ',')
    spec.Format_abs.Spec.splits;
  Array.iter (fun v -> Buffer.add_string buf (string_of_int v); Buffer.add_char buf ';')
    spec.Format_abs.Spec.order;
  Array.iter
    (fun f -> Buffer.add_char buf (Format_abs.Levelfmt.to_char f))
    spec.Format_abs.Spec.formats;
  Buffer.contents buf

let storage t (spec : Format_abs.Spec.t) =
  let key = spec_key spec in
  let cached =
    Mutex.protect t.cache_lock (fun () -> Hashtbl.find_opt t.storage_cache key)
  in
  match cached with
  | Some s -> s
  | None ->
      (* Analyze outside the lock: it is pure, and a duplicate computation on a
         concurrent miss is cheaper than serializing every analysis. *)
      let s = Format_abs.Storage_model.analyze spec t.coords in
      Mutex.protect t.cache_lock (fun () ->
          if not (Hashtbl.mem t.storage_cache key) then
            Hashtbl.add t.storage_cache key s);
      s

(* Work (nonzero count) per value of derived variable [v] under split [split]
   of logical dim [d]: the distribution the dynamic-scheduling simulation
   chunks up.  Top vars group [split] consecutive logical indices; bottom
   vars stride across them. *)
let work_per_var_value t ~dim ~split ~is_top =
  let counts = t.counts.(dim) in
  let n = Array.length counts in
  if is_top then begin
    let nblocks = (n + split - 1) / split in
    let work = Array.make (max 1 nblocks) 0 in
    Array.iteri (fun x c -> work.(x / split) <- work.(x / split) + c) counts;
    work
  end
  else begin
    let work = Array.make (max 1 split) 0 in
    Array.iteri (fun x c -> work.(x mod split) <- work.(x mod split) + c) counts;
    work
  end

(* Logical indices of dim [dim] each derived-variable value owns — the count
   of output elements the value writes when [dim] is the output dimension. *)
let indices_per_var_value t ~dim ~split ~is_top =
  let n = Array.length t.counts.(dim) in
  if is_top then begin
    let nblocks = (n + split - 1) / split in
    Array.init (max 1 nblocks) (fun v -> max 0 (min split (n - (v * split))))
  end
  else
    Array.init (max 1 split) (fun v ->
        if v >= n then 0 else ((n - 1 - v) / split) + 1)

(* Per-kernel weighted work per value of the parallelized variable: each
   nonzero costs its kernel's flops, and — when the parallelized dimension is
   the output dimension (dim 0 of a dense output) — each owned logical index
   pays its row of output writes.  SDDMM's output is sparse (written per
   nonzero, already priced by the flop term), so it carries no write term;
   when dim <> 0 the term vanishes and the distribution is a pure scaling of
   the nonzero histogram. *)
let kernel_work t ~(algo : Schedule.Algorithm.t) ~dim ~split ~is_top =
  let key =
    Printf.sprintf "%s/%d/%d/%b" (Schedule.Algorithm.name algo) dim split is_top
  in
  let cached =
    Mutex.protect t.cache_lock (fun () -> Hashtbl.find_opt t.kernel_work_cache key)
  in
  match cached with
  | Some w -> w
  | None ->
      let counts = work_per_var_value t ~dim ~split ~is_top in
      let flops = Schedule.Algorithm.flops_per_entry algo in
      let writes_per_idx =
        if dim <> 0 then 0.0
        else
          match algo with
          | Schedule.Algorithm.Spmv -> 1.0
          | Schedule.Algorithm.Spmm jn | Schedule.Algorithm.Mttkrp jn ->
              float_of_int jn
          | Schedule.Algorithm.Sddmm _ -> 0.0
      in
      let w =
        if writes_per_idx = 0.0 then
          Array.map (fun c -> flops *. float_of_int c) counts
        else begin
          let idxs = indices_per_var_value t ~dim ~split ~is_top in
          Array.mapi
            (fun v c ->
              (flops *. float_of_int c)
              +. (writes_per_idx *. float_of_int idxs.(v)))
            counts
        end
      in
      Mutex.protect t.cache_lock (fun () ->
          if not (Hashtbl.mem t.kernel_work_cache key) then
            Hashtbl.add t.kernel_work_cache key w);
      w
