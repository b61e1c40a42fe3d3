(* Analytic storage model: computes the pos/crd/value footprint of a format
   Spec over a pattern *without* materializing it, so the cost simulator can
   price formats whose zero-fill would be too large to pack physically (the
   paper's dataset likewise excludes schedules that run for over a minute, but
   the cost model must still rank them as bad).

   Derivation: walking levels root-to-leaf, the position count is
     p(-1) = 1
     p(l)  = p(l-1) * size(l)            if level l is U (dense expansion)
     p(l)  = #distinct nonzero prefixes  if level l is C
   and a C level's crd length equals its position count while its pos array
   has p(l-1) + 1 entries.  The value array has p(last) slots. *)

type t = {
  pos_ints : int;
  crd_ints : int;
  nvals : float; (* may exceed max_array_length for pathological formats *)
  bytes : float;
  fill_ratio : float;
  level_positions : float array; (* p(l) per level *)
  level_branching : float array; (* average children per parent, per level *)
}

(* Distinct-prefix counts per level depth, computed by exact prefix-id
   propagation: each entry carries the id of its depth-(l-1) prefix; the
   depth-l id is interned from (parent id, coordinate).  O(nnz * levels) with
   no sorting — this is on the dataset-generation and tune hot paths.
   Ids are numbered by first occurrence in entry order, so they are dense
   in [0, count) and the previous level's count bounds the parent ids. *)
(* Generation-stamped interning scratch: a direct-mapped array avoids
   hashtable overhead for the (common) levels whose key space is small, and
   resets in O(1) via the generation counter.  Domain-local — the parallel
   measurement paths run [analyze] concurrently, and a shared scratch would
   let one domain's interning clobber another's. *)
let scratch_cap = 1 lsl 21

type scratch = { mutable ids : int array; mutable gens : int array; mutable g : int }

let scratch_key =
  Domain.DLS.new_key (fun () -> { ids = [||]; gens = [||]; g = 0 })

(* Grown to the largest key space seen (doubling, at most [scratch_cap]):
   a domain that only analyzes small patterns never holds the full
   capacity.  Reset is O(1) via [g]; fresh arrays restart it at 0. *)
let get_scratch need =
  let sc = Domain.DLS.get scratch_key in
  if Array.length sc.ids < need then begin
    let len = min scratch_cap (max need (2 * Array.length sc.ids)) in
    sc.ids <- Array.make len 0;
    sc.gens <- Array.make len 0;
    sc.g <- 0
  end;
  sc

(* One level's interning pass: [prev_ids] in, this level's ids out (in
   place); returns the number of distinct ids.  [cs] is the level's logical
   coordinate array; the derived coordinate is [c / split] for a top
   variable and [c mod split] for a bottom one. *)
let intern_level ~prev_ids ~cs ~split ~is_top ~stride ~key_space =
  let n = Array.length prev_ids in
  let next = ref 0 in
  if key_space > 0 && key_space <= scratch_cap then begin
    let sc = get_scratch key_space in
    sc.g <- sc.g + 1;
    let ids = sc.ids and gens = sc.gens and g = sc.g in
    for e = 0 to n - 1 do
      let x = Array.unsafe_get cs e in
      let c = if is_top then x / split else x mod split in
      let key = (Array.unsafe_get prev_ids e * stride) + c in
      if Array.unsafe_get gens key = g then
        Array.unsafe_set prev_ids e (Array.unsafe_get ids key)
      else begin
        let id = !next in
        incr next;
        Array.unsafe_set gens key g;
        Array.unsafe_set ids key id;
        Array.unsafe_set prev_ids e id
      end
    done
  end
  else begin
    let tbl : (int, int) Hashtbl.t = Hashtbl.create (2 * n) in
    for e = 0 to n - 1 do
      let x = cs.(e) in
      let c = if is_top then x / split else x mod split in
      let key = (prev_ids.(e) * stride) + c in
      match Hashtbl.find_opt tbl key with
      | Some id -> prev_ids.(e) <- id
      | None ->
          let id = !next in
          incr next;
          Hashtbl.add tbl key id;
          prev_ids.(e) <- id
    done
  end;
  !next

(* Distinct nonzero coordinate prefixes at each level depth, by exact
   prefix-id interning.  [coords.(d).(e)] is entry [e]'s logical coordinate
   on dimension [d]; every array has one slot per entry.  The result does
   not depend on the entries' order. *)
let distinct_prefix_counts (spec : Spec.t) (coords : int array array) =
  let n = if Array.length coords = 0 then 0 else Array.length coords.(0) in
  if Array.exists (fun cs -> Array.length cs <> n) coords then
    invalid_arg "Storage_model.distinct_prefix_counts: coordinate arrays differ";
  let nlv = Spec.nlevels spec in
  let counts = Array.make nlv 0 in
  let prev_ids = Array.make n 0 in
  for l = 0 to nlv - 1 do
    let size = Spec.level_size spec l in
    (* Parent ids are dense in [0, bound). *)
    let bound = if l = 0 then min n 1 else counts.(l - 1) in
    counts.(l) <-
      (if size = 1 || bound = n then
         (* A one-wide level gives every entry coordinate 0, and a level
            under all-distinct prefixes gives every entry its own key:
            either way first-occurrence interning maps each id to itself. *)
         bound
       else begin
         let v = Spec.level_var spec l in
         let d = Spec.var_dim v in
         let stride = size + 1 in
         intern_level ~prev_ids ~cs:coords.(d) ~split:spec.Spec.splits.(d)
           ~is_top:(Spec.var_is_top v) ~stride
           ~key_space:((bound * stride) + stride)
       end)
  done;
  counts

let analyze (spec : Spec.t) (coords : int array array) =
  Spec.validate spec;
  let nlv = Spec.nlevels spec in
  let nnz = if Array.length coords = 0 then 0 else Array.length coords.(0) in
  let prefix_counts = distinct_prefix_counts spec coords in
  let level_positions = Array.make nlv 0.0 in
  let level_branching = Array.make nlv 0.0 in
  let pos_ints = ref 0 and crd_ints = ref 0 in
  let prev = ref 1.0 in
  for lvl = 0 to nlv - 1 do
    let p =
      match spec.Spec.formats.(lvl) with
      | Levelfmt.U -> !prev *. float_of_int (Spec.level_size spec lvl)
      | Levelfmt.C ->
          let c = float_of_int prefix_counts.(lvl) in
          pos_ints := !pos_ints + int_of_float (Float.min !prev 1e9) + 1;
          crd_ints := !crd_ints + prefix_counts.(lvl);
          c
    in
    level_positions.(lvl) <- p;
    level_branching.(lvl) <- (if !prev > 0.0 then p /. !prev else 0.0);
    prev := p
  done;
  let nvals = !prev in
  {
    pos_ints = !pos_ints;
    crd_ints = !crd_ints;
    nvals;
    bytes = 4.0 *. (float_of_int (!pos_ints + !crd_ints) +. nvals);
    fill_ratio = (if nvals > 0.0 then float_of_int nnz /. nvals else 0.0);
    level_positions;
    level_branching;
  }

let analyze_coo (spec : Spec.t) (m : Sptensor.Coo.t) =
  analyze spec [| m.Sptensor.Coo.rows; m.Sptensor.Coo.cols |]
