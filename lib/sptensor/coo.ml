(* Coordinate-list sparse matrices: the canonical interchange representation.

   All generators produce COO; the format-abstraction layer packs COO into
   arbitrary hierarchical formats; executors unpack back to COO in tests to
   verify packing is lossless.  Entries are kept sorted row-major and
   duplicate-free (duplicates are summed at construction). *)

type t = {
  nrows : int;
  ncols : int;
  rows : int array; (* length nnz, sorted lexicographically by (row, col) *)
  cols : int array;
  vals : float array;
}

let nnz t = Array.length t.rows

let density t =
  if t.nrows = 0 || t.ncols = 0 then 0.0
  else float_of_int (nnz t) /. (float_of_int t.nrows *. float_of_int t.ncols)

let check_bounds ~nrows ~ncols i j =
  if i < 0 || i >= nrows || j < 0 || j >= ncols then
    invalid_arg
      (Printf.sprintf "Coo.of_triplets: (%d,%d) out of %dx%d" i j nrows ncols)

(* Sort-and-sum over a triplet array the caller gives up (it is sorted in
   place): duplicates are summed in sorted order.  Entries whose value is
   exactly 0.0 are kept (a stored zero is still part of the pattern,
   matching Matrix-Market semantics). *)
let sort_and_sum ~nrows ~ncols arr =
  Array.sort
    (fun (i1, j1, _) (i2, j2, _) -> if i1 <> i2 then Int.compare i1 i2 else Int.compare j1 j2)
    arr;
  let n = Array.length arr in
  (* Count unique coordinates. *)
  let uniq = ref 0 in
  Array.iteri
    (fun k (i, j, _) ->
      if k = 0 then incr uniq
      else begin
        let pi, pj, _ = arr.(k - 1) in
        if i <> pi || j <> pj then incr uniq
      end)
    arr;
  let rows = Array.make !uniq 0 in
  let cols = Array.make !uniq 0 in
  let vals = Array.make !uniq 0.0 in
  let w = ref (-1) in
  for k = 0 to n - 1 do
    let i, j, v = arr.(k) in
    if !w >= 0 && rows.(!w) = i && cols.(!w) = j then vals.(!w) <- vals.(!w) +. v
    else begin
      incr w;
      rows.(!w) <- i;
      cols.(!w) <- j;
      vals.(!w) <- v
    end
  done;
  { nrows; ncols; rows; cols; vals }

(* Build from unordered triplets; sorts and sums duplicates. *)
let of_triplets ~nrows ~ncols triplets =
  List.iter (fun (i, j, _) -> check_bounds ~nrows ~ncols i j) triplets;
  sort_and_sum ~nrows ~ncols (Array.of_list triplets)

(* [of_triplets] over an array, without the list round-trip.  Input that is
   already row-major sorted and duplicate-free (what encoders of canonical
   COO emit) builds with one scan and three column copies; anything else
   goes through the sort-and-sum on a private copy ([a] is never
   mutated). *)
let of_triplet_array ~nrows ~ncols (a : (int * int * float) array) =
  let n = Array.length a in
  let sorted_unique = ref true in
  for k = 0 to n - 1 do
    let i, j, _ = Array.unsafe_get a k in
    check_bounds ~nrows ~ncols i j;
    if k > 0 then begin
      let pi, pj, _ = Array.unsafe_get a (k - 1) in
      if pi > i || (pi = i && pj >= j) then sorted_unique := false
    end
  done;
  if !sorted_unique then begin
    let rows = Array.make n 0 in
    let cols = Array.make n 0 in
    let vals = Array.make n 0.0 in
    for k = 0 to n - 1 do
      let i, j, v = Array.unsafe_get a k in
      Array.unsafe_set rows k i;
      Array.unsafe_set cols k j;
      Array.unsafe_set vals k v
    done;
    { nrows; ncols; rows; cols; vals }
  end
  else sort_and_sum ~nrows ~ncols (Array.copy a)

(* Build from three columns.  The serving protocol decodes wire entries
   straight into columns that are almost always already row-major sorted
   and duplicate-free: one scan checks bounds and order, and such columns
   are adopted as they are — no copy, no sort.  Anything else goes through
   the sort-and-sum on a triplet copy, so the columns are never mutated
   and duplicate sums are those of [of_triplet_array]. *)
let of_columns ~nrows ~ncols rows cols vals =
  let n = Array.length rows in
  if Array.length cols <> n || Array.length vals <> n then
    invalid_arg "Coo.of_columns: columns of different lengths";
  let sorted_unique = ref true in
  for k = 0 to n - 1 do
    let i = Array.unsafe_get rows k and j = Array.unsafe_get cols k in
    check_bounds ~nrows ~ncols i j;
    if k > 0 then begin
      let pi = Array.unsafe_get rows (k - 1) in
      if pi > i || (pi = i && Array.unsafe_get cols (k - 1) >= j) then
        sorted_unique := false
    end
  done;
  if !sorted_unique then { nrows; ncols; rows; cols; vals }
  else
    sort_and_sum ~nrows ~ncols (Array.init n (fun k -> (rows.(k), cols.(k), vals.(k))))

let to_triplets t =
  let out = ref [] in
  for k = nnz t - 1 downto 0 do
    out := (t.rows.(k), t.cols.(k), t.vals.(k)) :: !out
  done;
  !out

let iter f t =
  for k = 0 to nnz t - 1 do
    f t.rows.(k) t.cols.(k) t.vals.(k)
  done

(* Row-start offsets (CSR-style pointer array of length nrows+1). *)
let row_ptr t =
  let ptr = Array.make (t.nrows + 1) 0 in
  iter (fun i _ _ -> ptr.(i + 1) <- ptr.(i + 1) + 1) t;
  for i = 0 to t.nrows - 1 do
    ptr.(i + 1) <- ptr.(i + 1) + ptr.(i)
  done;
  ptr

let nnz_per_row t =
  let counts = Array.make t.nrows 0 in
  iter (fun i _ _ -> counts.(i) <- counts.(i) + 1) t;
  counts

let nnz_per_col t =
  let counts = Array.make t.ncols 0 in
  iter (fun _ j _ -> counts.(j) <- counts.(j) + 1) t;
  counts

let transpose t =
  of_triplets ~nrows:t.ncols ~ncols:t.nrows
    (List.map (fun (i, j, v) -> (j, i, v)) (to_triplets t))

let equal a b =
  a.nrows = b.nrows && a.ncols = b.ncols && a.rows = b.rows && a.cols = b.cols
  && a.vals = b.vals

(* Pattern equality plus elementwise value tolerance. *)
let approx_equal ?(eps = 1e-9) a b =
  a.nrows = b.nrows && a.ncols = b.ncols
  && nnz a = nnz b
  && begin
       let ok = ref true in
       for k = 0 to nnz a - 1 do
         if
           a.rows.(k) <> b.rows.(k)
           || a.cols.(k) <> b.cols.(k)
           || Float.abs (a.vals.(k) -. b.vals.(k)) > eps
         then ok := false
       done;
       !ok
     end

let to_dense t =
  let m = Dense.mat_create t.nrows t.ncols in
  iter (fun i j v -> Dense.add_to m i j v) t;
  m

let of_dense ?(threshold = 0.0) (m : Dense.mat) =
  let triplets = ref [] in
  for i = m.Dense.rows - 1 downto 0 do
    for j = m.Dense.cols - 1 downto 0 do
      let v = Dense.get m i j in
      if Float.abs v > threshold then triplets := (i, j, v) :: !triplets
    done
  done;
  of_triplets ~nrows:m.Dense.rows ~ncols:m.Dense.cols !triplets

let pp ppf t =
  Fmt.pf ppf "coo %dx%d nnz=%d" t.nrows t.ncols (nnz t)
