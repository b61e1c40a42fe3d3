(* Fully-connected layer over a batch of row vectors, with a hand-written
   backward pass.  Forward caches its input; call backward at most once per
   forward (the trainer's pattern).

   Forward/backward write into grow-only per-instance scratch buffers; the
   returned arrays are valid until the next call on the same instance and may
   be longer than the valid batch extent (DESIGN.md §9). *)

type t = {
  in_dim : int;
  out_dim : int;
  w : Param.t; (* out_dim x in_dim, row-major *)
  b : Param.t; (* out_dim *)
  mutable cache_input : float array;
  mutable cache_batch : int;
  mutable cache_relu : bool; (* forward fused a ReLU: backward masks by out *)
  mutable scratch_out : float array; (* grow-only forward output *)
  mutable scratch_din : float array; (* grow-only backward d(input) *)
}

let create rng ~name ~in_dim ~out_dim =
  {
    in_dim;
    out_dim;
    w =
      Param.xavier rng ~name:(name ^ ".w") ~fan_in:in_dim ~fan_out:out_dim
        (in_dim * out_dim);
    b = Param.create ~name:(name ^ ".b") out_dim;
    cache_input = [||];
    cache_batch = 0;
    cache_relu = false;
    scratch_out = [||];
    scratch_din = [||];
  }

let params t = [ t.w; t.b ]

(* Forward-only copy for another domain: parameters are shared (reads only),
   the per-forward caches and scratch buffers are private. *)
let replicate t =
  {
    t with
    cache_input = [||];
    cache_batch = 0;
    cache_relu = false;
    scratch_out = [||];
    scratch_din = [||];
  }

let[@inline] grown buf need = if Array.length buf < need then Array.make need 0.0 else buf

(* The layer's one forward kernel, shared by [forward] and the cost model's
   split predictor tail (DESIGN.md §9): a blocked batched GEMM over
   strided row views with the bias add and an optional trailing ReLU fused
   in.  Every output cell is one accumulator seeded with the bias, then the
   input extent in ascending order.  Tiling covers batch rows only (four
   row accumulators share one streamed weight row); a cell's value does not
   depend on its batch or row position.  Forward-only: no caching, and zero
   allocation.

   [cols = (lo, hi)] restricts the reduction to weight columns [lo, hi),
   reading each row's [hi - lo] inputs from its view, and [seed] replaces
   the bias as every accumulator's start.  A reduction split at column [c]
   and resumed from the first part's stored (un-ReLU'd) output is therefore
   the same float-op chain as the unsplit one: bias, columns [0, c), then
   columns [c, in_dim), one accumulator, ascending. *)
let forward_into ?cols ?seed t ~batch ~src ~src_off ~src_stride ~dst ~dst_off ~dst_stride
    ~relu =
  if batch > 0 then begin
    let od = t.out_dim in
    let lo = match cols with Some (l, _) -> l | None -> 0 in
    let hi = match cols with Some (_, h) -> h | None -> t.in_dim in
    let seed = match seed with Some s -> s | None -> t.b.Param.data in
    let width = hi - lo in
    if
      lo < 0 || hi > t.in_dim || width < 0 || src_off < 0 || dst_off < 0
      || Array.length seed < od
      || Array.length src < src_off + ((batch - 1) * src_stride) + width
      || Array.length dst < dst_off + ((batch - 1) * dst_stride) + od
    then invalid_arg "Linear.forward_into: view out of bounds";
    let id = t.in_dim in
    let w = t.w.Param.data in
    let n = ref 0 in
    while !n + 4 <= batch do
      (* [s_k + i] is row k's input for weight column [i]. *)
      let s0 = src_off + (!n * src_stride) - lo in
      let s1 = s0 + src_stride in
      let s2 = s1 + src_stride in
      let s3 = s2 + src_stride in
      let d0 = dst_off + (!n * dst_stride) in
      let d1 = d0 + dst_stride in
      let d2 = d1 + dst_stride in
      let d3 = d2 + dst_stride in
      for o = 0 to od - 1 do
        let wb = o * id in
        let b0 = Array.unsafe_get seed o in
        let a0 = ref b0 and a1 = ref b0 and a2 = ref b0 and a3 = ref b0 in
        for i = lo to hi - 1 do
          let wv = Array.unsafe_get w (wb + i) in
          a0 := !a0 +. (wv *. Array.unsafe_get src (s0 + i));
          a1 := !a1 +. (wv *. Array.unsafe_get src (s1 + i));
          a2 := !a2 +. (wv *. Array.unsafe_get src (s2 + i));
          a3 := !a3 +. (wv *. Array.unsafe_get src (s3 + i))
        done;
        if relu then begin
          Array.unsafe_set dst (d0 + o) (if !a0 > 0.0 then !a0 else 0.0);
          Array.unsafe_set dst (d1 + o) (if !a1 > 0.0 then !a1 else 0.0);
          Array.unsafe_set dst (d2 + o) (if !a2 > 0.0 then !a2 else 0.0);
          Array.unsafe_set dst (d3 + o) (if !a3 > 0.0 then !a3 else 0.0)
        end
        else begin
          Array.unsafe_set dst (d0 + o) !a0;
          Array.unsafe_set dst (d1 + o) !a1;
          Array.unsafe_set dst (d2 + o) !a2;
          Array.unsafe_set dst (d3 + o) !a3
        end
      done;
      n := !n + 4
    done;
    while !n < batch do
      let sb = src_off + (!n * src_stride) - lo in
      let db = dst_off + (!n * dst_stride) in
      for o = 0 to od - 1 do
        let wb = o * id in
        let acc = ref (Array.unsafe_get seed o) in
        for i = lo to hi - 1 do
          acc := !acc +. (Array.unsafe_get w (wb + i) *. Array.unsafe_get src (sb + i))
        done;
        Array.unsafe_set dst (db + o) (if relu && not (!acc > 0.0) then 0.0 else !acc)
      done;
      incr n
    done
  end

(* Caches what [backward] needs, then runs [forward_into] into this
   layer's scratch: the layer has one forward kernel. *)
let forward ?(relu = false) t ~batch (input : float array) =
  t.cache_input <- input;
  t.cache_batch <- batch;
  t.cache_relu <- relu;
  t.scratch_out <- grown t.scratch_out (batch * t.out_dim);
  forward_into t ~batch ~src:input ~src_off:0 ~src_stride:t.in_dim ~dst:t.scratch_out
    ~dst_off:0 ~dst_stride:t.out_dim ~relu;
  t.scratch_out

(* Accumulates dW, db; returns d(input) in this instance's scratch buffer
   (valid prefix = batch * in_dim, valid until the next backward).  After a
   [~relu:true] forward, d(output) is read through the ReLU's mask: the
   forward's output is [> 0] exactly where the pre-activation was (NaN and
   -0.0 included). *)
let backward t (dout : float array) =
  let batch = t.cache_batch in
  if Array.length dout < batch * t.out_dim then
    invalid_arg "Linear.backward: dout size mismatch";
  let input = t.cache_input and out = t.scratch_out in
  t.scratch_din <- grown t.scratch_din (batch * t.in_dim);
  let din = t.scratch_din in
  Array.fill din 0 (batch * t.in_dim) 0.0;
  for n = 0 to batch - 1 do
    let ib = n * t.in_dim and ob = n * t.out_dim in
    for o = 0 to t.out_dim - 1 do
      let g = if t.cache_relu && not (out.(ob + o) > 0.0) then 0.0 else dout.(ob + o) in
      if g <> 0.0 then begin
        let wb = o * t.in_dim in
        t.b.Param.grad.(o) <- t.b.Param.grad.(o) +. g;
        for i = 0 to t.in_dim - 1 do
          t.w.Param.grad.(wb + i) <- t.w.Param.grad.(wb + i) +. (g *. input.(ib + i));
          din.(ib + i) <- din.(ib + i) +. (g *. t.w.Param.data.(wb + i))
        done
      end
    done
  done;
  din
