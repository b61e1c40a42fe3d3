(* Physical packing of a sparse tensor into an arbitrary format Spec.

   The packed representation is a coordinate hierarchy (Fig. 3 of the paper):
   levels are materialized root-to-leaf; a [Dense] (U) level expands each
   parent position into [size] child slots (zero-filling absent ones), while a
   [Compressed] (C) level stores explicit pos/crd arrays.  Leaf positions hold
   the value array, including the padding zeros a dense-blocked format pays
   for — the executors and the cost simulator both see that padding. *)

type level =
  | Dense of int (* slot count per parent *)
  | Compressed of { pos : int array; crd : int array }

type t = {
  spec : Spec.t;
  levels : level array;
  vals : float array;
  nnz : int; (* logical (unpadded) nonzero count *)
}

(* Refuse to materialize more than this many leaf slots by default: formats
   that zero-fill most of the space are representable (the analytic storage
   model still prices them) but not physically packed. *)
let default_budget = 1 lsl 24

(* The coordinate at level [lvl] of an entry's logical coordinates: division
   for a split's top level, modulo for its bottom. *)
let derived_coord spec ~logical lvl entry_coords =
  let v = Spec.level_var spec lvl in
  let d = Spec.var_dim v in
  ignore logical;
  let c = entry_coords.(d) in
  if Spec.var_is_top v then c / spec.Spec.splits.(d) else c mod spec.Spec.splits.(d)

(* Pack [entries] (logical coordinates + value, duplicates forbidden) into the
   given spec.  Returns [Error] if the materialized size would exceed
   [budget] or if duplicate coordinates are present. *)
let pack ?(budget = default_budget) (spec : Spec.t) (entries : (int array * float) array) =
  Spec.validate spec;
  let n = Array.length entries in
  let nlv = Spec.nlevels spec in
  (* Precompute per-level derived coordinates, entry-major. *)
  let lvl_coords =
    Array.init nlv (fun lvl ->
        Array.map (fun (coords, _) -> derived_coord spec ~logical:() lvl coords) entries)
  in
  (* Sort entry indices lexicographically by level coordinates. *)
  let idx = Array.init n (fun e -> e) in
  let compare_entries a b =
    let rec go lvl =
      if lvl = nlv then 0
      else begin
        let ca = lvl_coords.(lvl).(a) and cb = lvl_coords.(lvl).(b) in
        if ca <> cb then Int.compare ca cb else go (lvl + 1)
      end
    in
    go 0
  in
  Array.sort compare_entries idx;
  (* Reject duplicates. *)
  let dup = ref false in
  for e = 1 to n - 1 do
    if compare_entries idx.(e - 1) idx.(e) = 0 then dup := true
  done;
  if !dup then Error "Packed.pack: duplicate coordinates"
  else begin
    (* Segments over the sorted entry array: one (lo, hi) range per position
       at the current level; empty ranges are padding slots. *)
    let seg_lo = ref [| 0 |] and seg_hi = ref [| n |] in
    let levels = Array.make nlv (Dense 0) in
    let exceeded = ref false in
    (try
       for lvl = 0 to nlv - 1 do
         let coords = lvl_coords.(lvl) in
         let nseg = Array.length !seg_lo in
         match spec.Spec.formats.(lvl) with
         | Levelfmt.U ->
             let size = Spec.level_size spec lvl in
             if nseg * size > budget then begin
               exceeded := true;
               raise Exit
             end;
             let nlo = Array.make (nseg * size) 0 in
             let nhi = Array.make (nseg * size) 0 in
             for s = 0 to nseg - 1 do
               let cur = ref !seg_lo.(s) in
               let hi = !seg_hi.(s) in
               for c = 0 to size - 1 do
                 let start = !cur in
                 while !cur < hi && coords.(idx.(!cur)) = c do
                   incr cur
                 done;
                 nlo.((s * size) + c) <- start;
                 nhi.((s * size) + c) <- !cur
               done
             done;
             levels.(lvl) <- Dense size;
             seg_lo := nlo;
             seg_hi := nhi
         | Levelfmt.C ->
             let pos = Array.make (nseg + 1) 0 in
             let crd_list = ref [] and crd_count = ref 0 in
             let nlo_list = ref [] and nhi_list = ref [] in
             for s = 0 to nseg - 1 do
               let cur = ref !seg_lo.(s) in
               let hi = !seg_hi.(s) in
               while !cur < hi do
                 let c = coords.(idx.(!cur)) in
                 let start = !cur in
                 while !cur < hi && coords.(idx.(!cur)) = c do
                   incr cur
                 done;
                 crd_list := c :: !crd_list;
                 incr crd_count;
                 nlo_list := start :: !nlo_list;
                 nhi_list := !cur :: !nhi_list
               done;
               pos.(s + 1) <- !crd_count
             done;
             let crd_arr = Array.of_list (List.rev !crd_list) in
             levels.(lvl) <- Compressed { pos; crd = crd_arr };
             seg_lo := Array.of_list (List.rev !nlo_list);
             seg_hi := Array.of_list (List.rev !nhi_list)
       done
     with Exit -> ());
    if !exceeded then Error "Packed.pack: materialized size exceeds budget"
    else begin
      let nleaf = Array.length !seg_lo in
      let vals = Array.make nleaf 0.0 in
      let ok = ref true in
      for s = 0 to nleaf - 1 do
        let lo = !seg_lo.(s) and hi = !seg_hi.(s) in
        if hi - lo > 1 then ok := false
        else if hi - lo = 1 then begin
          let _, v = entries.(idx.(lo)) in
          vals.(s) <- v
        end
      done;
      if not !ok then Error "Packed.pack: internal error (non-singleton leaf)"
      else Ok { spec; levels; vals; nnz = n }
    end
  end

let of_coo ?budget (spec : Spec.t) (m : Sptensor.Coo.t) =
  if Spec.rank spec <> 2 then invalid_arg "Packed.of_coo: spec rank must be 2";
  if spec.Spec.dims.(0) <> m.Sptensor.Coo.nrows || spec.Spec.dims.(1) <> m.Sptensor.Coo.ncols
  then invalid_arg "Packed.of_coo: spec dims do not match matrix";
  let entries =
    Array.init (Sptensor.Coo.nnz m) (fun k ->
        ([| m.Sptensor.Coo.rows.(k); m.Sptensor.Coo.cols.(k) |], m.Sptensor.Coo.vals.(k)))
  in
  pack ?budget spec entries

let of_tensor3 ?budget (spec : Spec.t) (t : Sptensor.Tensor3.t) =
  if Spec.rank spec <> 3 then invalid_arg "Packed.of_tensor3: spec rank must be 3";
  let open Sptensor.Tensor3 in
  if spec.Spec.dims.(0) <> t.dim_i || spec.Spec.dims.(1) <> t.dim_k
     || spec.Spec.dims.(2) <> t.dim_l
  then invalid_arg "Packed.of_tensor3: spec dims do not match tensor";
  let entries =
    Array.init (nnz t) (fun p -> ([| t.is.(p); t.ks.(p); t.ls.(p) |], t.vals.(p)))
  in
  pack ?budget spec entries

(* Iterate stored leaf slots in storage (concordant) order.  [f] receives the
   logical coordinates and value of each *in-bounds* slot, including stored
   padding zeros inside valid bounds; out-of-bounds padding slots (from
   non-divisible splits) are skipped. *)
let iter_leaves t f =
  let spec = t.spec in
  let r = Spec.rank spec in
  let nlv = Spec.nlevels spec in
  let tops = Array.make r 0 and bottoms = Array.make r 0 in
  let logical = Array.make r 0 in
  let rec walk lvl pos =
    if lvl = nlv then begin
      let in_bounds = ref true in
      for d = 0 to r - 1 do
        logical.(d) <- (tops.(d) * spec.Spec.splits.(d)) + bottoms.(d);
        if logical.(d) >= spec.Spec.dims.(d) then in_bounds := false
      done;
      if !in_bounds then f logical t.vals.(pos)
    end
    else begin
      let v = Spec.level_var spec lvl in
      let d = Spec.var_dim v in
      let is_top = Spec.var_is_top v in
      match t.levels.(lvl) with
      | Dense size ->
          for c = 0 to size - 1 do
            if is_top then tops.(d) <- c else bottoms.(d) <- c;
            walk (lvl + 1) ((pos * size) + c)
          done
      | Compressed { pos = pa; crd } ->
          for q = pa.(pos) to pa.(pos + 1) - 1 do
            let c = crd.(q) in
            if is_top then tops.(d) <- c else bottoms.(d) <- c;
            walk (lvl + 1) q
          done
    end
  in
  walk 0 0

(* Round-trip back to COO, dropping exact zeros (padding). *)
let to_coo t =
  if Spec.rank t.spec <> 2 then invalid_arg "Packed.to_coo: rank must be 2";
  let triplets = ref [] in
  iter_leaves t (fun coords v ->
      if v <> 0.0 then triplets := (coords.(0), coords.(1), v) :: !triplets);
  Sptensor.Coo.of_triplets ~nrows:t.spec.Spec.dims.(0) ~ncols:t.spec.Spec.dims.(1)
    !triplets

let to_quads t =
  if Spec.rank t.spec <> 3 then invalid_arg "Packed.to_quads: rank must be 3";
  let quads = ref [] in
  iter_leaves t (fun coords v ->
      if v <> 0.0 then quads := (coords.(0), coords.(1), coords.(2), v) :: !quads);
  !quads

(* Physical storage accounting (4-byte indices and values, as in the paper's
   single-precision evaluation). *)
type storage = {
  pos_ints : int;
  crd_ints : int;
  nvals : int;
  bytes : int;
  fill_ratio : float; (* logical nnz / materialized value slots *)
}

let storage_of t =
  let pos_ints = ref 0 and crd_ints = ref 0 in
  Array.iter
    (function
      | Dense _ -> ()
      | Compressed { pos; crd } ->
          pos_ints := !pos_ints + Array.length pos;
          crd_ints := !crd_ints + Array.length crd)
    t.levels;
  let nvals = Array.length t.vals in
  {
    pos_ints = !pos_ints;
    crd_ints = !crd_ints;
    nvals;
    bytes = 4 * (!pos_ints + !crd_ints + nvals);
    fill_ratio = (if nvals = 0 then 0.0 else float_of_int t.nnz /. float_of_int nvals);
  }

let pp ppf t =
  let s = storage_of t in
  Fmt.pf ppf "packed[%s] nnz=%d vals=%d bytes=%d" (Spec.name t.spec) t.nnz s.nvals
    s.bytes
