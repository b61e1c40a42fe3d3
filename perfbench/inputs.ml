(* Seeded workload inputs.  Everything here is generated before any
   timing starts; the same seed gives the same matrices and the same query
   stream. *)

open Sptensor

let algo = Schedule.Algorithm.Spmm 256

let machine = Machine_model.Machine.intel_like

(* The training corpus is part of the system under test, not of a
   workload: it is fixed, so a seed changes only the queries. *)
let corpus_seed = 20230325

let corpus () =
  List.map
    (fun (g : Gen.named) -> (g.Gen.name, g.Gen.matrix))
    (Gen.suite (Rng.create corpus_seed) ~count:12 ~max_dim:512 ~max_nnz:8000)

(* Six families; [Stencil2d] is left out because it forces its own shape.
   No input exceeds 512 rows: [Gen.power_law] draws each nonzero through
   [Rng.zipf], which takes seconds per matrix beyond that size. *)
let families =
  [| Gen.Uniform; Gen.Power_law 1.5; Gen.Banded 8; Gen.Block_dense 4; Gen.Rmat;
     Gen.Clustered 4 |]

let fingerprint m = Serve.Fingerprint.key (Serve.Fingerprint.of_coo m)

(* [n] square patterns with pairwise distinct fingerprints, so cache keys
   and patterns coincide; [shape rng i] gives pattern [i]'s rows and nnz. *)
let distinct_patterns rng n ~shape =
  let seen = Hashtbl.create n in
  Array.init n (fun i ->
      let rec draw () =
        let rows, nnz = shape rng i in
        let m =
          Gen.generate rng families.(i mod Array.length families) ~nrows:rows
            ~ncols:rows ~nnz
        in
        let key = fingerprint m in
        if Hashtbl.mem seen key then draw ()
        else begin
          Hashtbl.add seen key ();
          m
        end
      in
      draw ())

(* Zipf popularity over ranks [0, n): rank [i] has weight [(i+1)^-s]. *)
let zipf_sampler ~s n =
  let acc = ref 0.0 in
  let cdf =
    Array.init n (fun i ->
        acc := !acc +. (float_of_int (i + 1) ** -.s);
        !acc)
  in
  let total = !acc in
  fun rng ->
    let u = Rng.float rng *. total in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) >= u then hi := mid else lo := mid + 1
    done;
    !lo

let source_of (m : Coo.t) =
  Serve.Protocol.Inline
    {
      nrows = m.Coo.nrows;
      ncols = m.Coo.ncols;
      entries =
        Array.init (Coo.nnz m) (fun k -> (m.Coo.rows.(k), m.Coo.cols.(k), m.Coo.vals.(k)));
    }
