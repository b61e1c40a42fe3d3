(* Submanifold sparse convolution (Graham & van der Maaten [17]), the layer
   WACONet is built from.

   Semantics: out[o] = bias + sum_d W_d * in[stride * o + d], where d ranges
   over the kernel window and only sites present in the input contribute.
   For stride 1 the output sites equal the input sites (submanifold: the
   activation pattern never dilates); for stride 2 the output sites are the
   distinct halved coordinates, which is what lets stacked strided layers grow
   the receptive field across distant nonzeros (Fig. 8).

   Data layout (DESIGN.md §9): the kernel map is a flat structure-of-arrays —
   CSR-style [off_start] offsets into two parallel int arrays [pairs_in] /
   [pairs_out], one segment per kernel offset — replacing the old boxed
   [(int * int) array array].  The per-offset pair order is exactly the order
   the old list-consing builder produced (descending input-site index), so
   float accumulation order, and therefore trained model artifacts, are
   byte-identical to the pre-flat layout (pinned by test/test_perf.ml). *)

type kernel_map = {
  out_coords : int array; (* encoded row * out_w + col *)
  out_h : int;
  out_w : int;
  off_start : int array; (* length ksize^2 + 1: CSR segment bounds *)
  pairs_in : int array; (* input site index per pair *)
  pairs_out : int array; (* output site index per pair *)
}

let map_npairs map = Array.length map.pairs_in

type t = {
  in_ch : int;
  out_ch : int;
  ksize : int;
  stride : int;
  w : Param.t; (* [ksize*ksize] x out_ch x in_ch *)
  b : Param.t;
  mutable cache_map : kernel_map option;
  mutable cache_relu : bool; (* forward fused a ReLU: backward masks by out *)
  mutable cache_in : float array; (* grow-only scratch; valid prefix below *)
  mutable cache_in_valid : int;
  mutable cache_nsites_out : int;
  mutable scratch_out : float array; (* grow-only forward output buffer *)
  mutable scratch_din : float array; (* grow-only backward d(input) buffer *)
}

let create rng ~name ~in_ch ~out_ch ~ksize ~stride =
  if ksize mod 2 = 0 then invalid_arg "Sparse_conv.create: kernel size must be odd";
  {
    in_ch;
    out_ch;
    ksize;
    stride;
    w =
      Param.xavier rng ~name:(name ^ ".w")
        ~fan_in:(in_ch * ksize * ksize)
        ~fan_out:out_ch
        (ksize * ksize * out_ch * in_ch);
    b =
      (* Small positive bias keeps deep layers of narrow nets from going dead
         once the strided pyramid shrinks to a handful of sites. *)
      (let p = Param.create ~name:(name ^ ".b") out_ch in
       Array.fill p.Param.data 0 out_ch 0.01;
       p);
    cache_map = None;
    cache_relu = false;
    cache_in = [||];
    cache_in_valid = 0;
    cache_nsites_out = 0;
    scratch_out = [||];
    scratch_din = [||];
  }

let params t = [ t.w; t.b ]

(* Forward-only replica for a worker domain: shares the weight/bias arrays,
   owns private forward caches and scratch buffers (replica-privacy: two
   domains must never write through the same scratch). *)
let replicate t =
  {
    t with
    cache_map = None;
    cache_relu = false;
    cache_in = [||];
    cache_in_valid = 0;
    cache_nsites_out = 0;
    scratch_out = [||];
    scratch_din = [||];
  }

(* Kernel maps depend only on the coordinate set; they are built once per
   input pattern and reused across epochs via [Pyramid] caching.

   Both builders count pairs per kernel offset on a first pass and fill on a
   second, walking input sites in ascending order and filling each offset's
   segment back to front — so every segment lists input indices in
   descending order, the order the historical list-consing builder produced
   (DESIGN.md §9).  Neither keeps an n * ksize^2 per-(site, offset) array
   between the passes. *)

(* CSR segment bounds from per-offset pair counts; [counts] is turned into
   the per-offset fill cursor (each segment's end). *)
let segments counts =
  let nk = Array.length counts in
  let off_start = Array.make (nk + 1) 0 in
  for o = 0 to nk - 1 do
    off_start.(o + 1) <- off_start.(o) + counts.(o)
  done;
  Array.blit off_start 1 counts 0 nk;
  off_start

(* Stride 1: a sorted sweep instead of hash probes.  Each site gets the
   padded key [row * (w + 2*half) + col], so a window [key - half, key + half]
   never wraps onto a neighbouring row, and over row-major-sorted keys the
   window of one kernel row is a short contiguous run.  One sweep per kernel
   row moves a cursor forward to each site's window start (window starts
   only grow with the site's key); a sentinel key past the end ends every
   scan.  Within a run of equal keys the last — the highest input index, the
   binding the reference's table keeps — is the output site.

   Inputs are row-major sorted in practice (the COO invariant, kept by
   [Smap.of_coo], [Smap.downsample] and every stride-1 output).  An unsorted
   input is swept in a stably sorted order; its pair indices are then mapped
   back and each segment re-sorted into descending input order. *)
let sweep_map ~ksize (coords : int array) ~h ~w =
  let half = ksize / 2 in
  let nk = ksize * ksize in
  let n = Array.length coords in
  let wp = w + (2 * half) in
  let sorted =
    let ok = ref true and p = ref 1 in
    while !ok && !p < n do
      ok := coords.(!p - 1) <= coords.(!p);
      incr p
    done;
    !ok
  in
  let perm =
    if sorted then [||]
    else begin
      let perm = Array.init n Fun.id in
      Array.stable_sort (fun a b -> Int.compare coords.(a) coords.(b)) perm;
      perm
    end
  in
  let keys = Array.make (n + 1) max_int in
  for p = 0 to n - 1 do
    let k = coords.(if sorted then p else perm.(p)) in
    let r = k / w in
    keys.(p) <- (r * wp) + k - (r * w)
  done;
  let counts = Array.make nk 0 in
  let sweep ~fill pairs_in pairs_out =
    for a = 0 to ksize - 1 do
      (* Kernel row dy = a - half: site p's window starts at
         keys.(p) - dy * wp - half and spans 2 * half + 1 keys; the pair
         at key kq has offset a * ksize + (wlo + 2 * half - kq). *)
      let shift = ((a - half) * wp) + half in
      let obase = (a * ksize) + (2 * half) in
      let q = ref 0 in
      for p = 0 to n - 1 do
        let wlo = keys.(p) - shift in
        while keys.(!q) < wlo do
          incr q
        done;
        let whi = wlo + (2 * half) in
        let r = ref !q in
        while keys.(!r) <= whi do
          let kq = keys.(!r) in
          while keys.(!r + 1) = kq do
            incr r
          done;
          let off = obase + wlo - kq in
          if fill then begin
            let pos = counts.(off) - 1 in
            counts.(off) <- pos;
            pairs_in.(pos) <- p;
            pairs_out.(pos) <- !r
          end
          else counts.(off) <- counts.(off) + 1;
          incr r
        done
      done
    done
  in
  sweep ~fill:false [||] [||];
  let off_start = segments counts in
  let total = off_start.(nk) in
  let pairs_in = Array.make total 0 and pairs_out = Array.make total 0 in
  sweep ~fill:true pairs_in pairs_out;
  if not sorted then
    (* A site contributes at most one pair per offset, so its input index
       alone orders a segment. *)
    for o = 0 to nk - 1 do
      let s = off_start.(o) in
      let seg =
        Array.init (off_start.(o + 1) - s) (fun q ->
            (perm.(pairs_in.(s + q)) * n) + perm.(pairs_out.(s + q)))
      in
      Array.sort (fun a b -> Int.compare b a) seg;
      Array.iteri
        (fun q v ->
          pairs_in.(s + q) <- v / n;
          pairs_out.(s + q) <- v mod n)
        seg
    done;
  (* out_w = w, so the encoded output coordinates are the inputs. *)
  { out_coords = coords; out_h = h; out_w = w; off_start; pairs_in; pairs_out }

(* Stride > 1: output sites are the distinct halved coordinates in
   first-occurrence order, numbered through an int-keyed table.  The probe
   key width is [out_w + half + 1], not [out_w]: a window cell just right of
   the grid can legitimately halve onto an existing output column, and a
   plain [out_w] encoding would alias such probes onto the next row.  Only
   window offsets on the stride lattice ([row - dy] and [col - dx] multiples
   of [stride]) are enumerated, stepping the output coordinate down by one
   per lattice step: one division per coordinate per site, none per probe.  The count pass logs each lattice
   probe's result, so the fill pass re-walks the lattice without probing. *)
let strided_map ~ksize ~stride (coords : int array) ~h ~w =
  let half = ksize / 2 in
  let nk = ksize * ksize in
  let n = Array.length coords in
  let out_h = (h + stride - 1) / stride and out_w = (w + stride - 1) / stride in
  let tw = out_w + half + 1 in
  let tbl = Int_tbl.create (2 * n) in
  let out = Array.make n 0 in
  let count = ref 0 in
  for idx = 0 to n - 1 do
    let k = coords.(idx) in
    let r = k / w in
    let orow = r / stride and ocol = (k - (r * w)) / stride in
    if Int_tbl.find_or_add tbl ((orow * tw) + ocol) !count = !count then begin
      out.(!count) <- (orow * out_w) + ocol;
      incr count
    end
  done;
  let out_coords = Array.sub out 0 !count in
  (* [hits]: per site, the output index (or -1) of each lattice probe in
     enumeration order — at most [lat] lattice rows times [lat] columns. *)
  let lat = (ksize + stride - 1) / stride in
  let hits = Array.make (n * lat * lat) (-1) in
  let counts = Array.make nk 0 in
  let probe ~fill pairs_in pairs_out =
    for i = 0 to n - 1 do
      let k = coords.(i) in
      let r = k / w in
      let c = k - (r * w) in
      let slot = ref (i * lat * lat) in
      (* The largest lattice row <= r + half is the window's first:
         dy0 = r - stride * orow0. *)
      let orow0 = (r + half) / stride and ocol0 = (c + half) / stride in
      let dy = ref (r - (stride * orow0)) and orow = ref orow0 in
      while !dy <= half && !orow >= 0 do
        let dx = ref (c - (stride * ocol0)) and ocol = ref ocol0 in
        while !dx <= half && !ocol >= 0 do
          let out_idx =
            if fill then hits.(!slot)
            else begin
              let o = Int_tbl.find tbl ((!orow * tw) + !ocol) ~default:(-1) in
              hits.(!slot) <- o;
              o
            end
          in
          if out_idx >= 0 then begin
            let off = ((!dy + half) * ksize) + !dx + half in
            if fill then begin
              let pos = counts.(off) - 1 in
              counts.(off) <- pos;
              pairs_in.(pos) <- i;
              pairs_out.(pos) <- out_idx
            end
            else counts.(off) <- counts.(off) + 1
          end;
          incr slot;
          dx := !dx + stride;
          decr ocol
        done;
        dy := !dy + stride;
        decr orow
      done
    done
  in
  probe ~fill:false [||] [||];
  let off_start = segments counts in
  let total = off_start.(nk) in
  let pairs_in = Array.make total 0 and pairs_out = Array.make total 0 in
  probe ~fill:true pairs_in pairs_out;
  { out_coords; out_h; out_w; off_start; pairs_in; pairs_out }

let build_map ~ksize ~stride coords ~h ~w =
  if stride = 1 then sweep_map ~ksize coords ~h ~w
  else strided_map ~ksize ~stride coords ~h ~w

let[@inline] grown buf need = if Array.length buf < need then Array.make need 0.0 else buf

(* The layer's one forward kernel, run by [forward_with_map] (DESIGN.md §9):
   [dst] gets bias + the map's pair products for [n_out = |out_coords|]
   sites, then an optional ReLU once every reduction is complete.  Order:
   bias init over all sites first, then kernel offsets ascending, pairs
   ascending within each offset segment, and per pair one ascending
   inner-channel accumulation chain seeded with [0.0] added to the output
   site.  The 1- and 6-channel widths WACONet uses get specialized loops
   that keep exactly that float-op sequence.  Forward-only: no caching, no allocation. *)
let forward_into t (map : kernel_map) ~src ~dst ~relu =
  let n_out = Array.length map.out_coords in
  let ci = t.in_ch and co = t.out_ch in
  if Array.length dst < n_out * co then invalid_arg "Sparse_conv.forward_into: dst too short";
  let w = t.w.Param.data and bias = t.b.Param.data in
  (* Trust boundary: the map builders guarantee a map's segments and pair
     indices are in range; one explicit check keeps the unsafe loops
     honest. *)
  let ostart = map.off_start and pin = map.pairs_in and pout = map.pairs_out in
  let nk = Array.length ostart - 1 and np = map_npairs map in
  let bad () = invalid_arg "Sparse_conv.forward_into: kernel map out of range" in
  if nk > t.ksize * t.ksize || Array.length pout <> np || ostart.(0) <> 0 then bad ();
  for off = 0 to nk - 1 do
    if ostart.(off + 1) < ostart.(off) || ostart.(off + 1) > np then bad ()
  done;
  if np > 0 then begin
    (* [signs] goes negative iff some index is. *)
    let signs = ref 0 and max_in = ref 0 and max_out = ref 0 in
    for p = 0 to np - 1 do
      let i = Array.unsafe_get pin p and o = Array.unsafe_get pout p in
      signs := !signs lor i lor o;
      if i > !max_in then max_in := i;
      if o > !max_out then max_out := o
    done;
    if !signs < 0 || (!max_in + 1) * ci > Array.length src || !max_out >= n_out then bad ()
  end;
  for s = 0 to n_out - 1 do
    let sb = s * co in
    for o = 0 to co - 1 do
      Array.unsafe_set dst (sb + o) (Array.unsafe_get bias o)
    done
  done;
  if ci = 1 then
    (* Single input channel (WACONet's first conv): the per-pair reduction is
       one product.  [0.0 +.] keeps the accumulator's first step bit-for-bit
       (sign of zero included). *)
    for off = 0 to nk - 1 do
      let wb = off * co in
      for p = Array.unsafe_get ostart off to Array.unsafe_get ostart (off + 1) - 1 do
        let x = Array.unsafe_get src (Array.unsafe_get pin p) in
        let ob = Array.unsafe_get pout p * co in
        for o = 0 to co - 1 do
          Array.unsafe_set dst (ob + o)
            (Array.unsafe_get dst (ob + o) +. (0.0 +. (Array.unsafe_get w (wb + o) *. x)))
        done
      done
    done
  else if ci = 6 then
    (* Six input channels (WACONet's stacked convs): hoist the input loads
       out of the output-channel loop — the generic path reloads all [ci]
       inputs per output channel — and unroll the reduction.  The explicit
       left-to-right chain seeded with [0.0 +.] is the generic accumulator's
       exact float-op sequence. *)
    for off = 0 to nk - 1 do
      let wbase = off * co * 6 in
      for p = Array.unsafe_get ostart off to Array.unsafe_get ostart (off + 1) - 1 do
        let ib = Array.unsafe_get pin p * 6 in
        let ob = Array.unsafe_get pout p * co in
        let x0 = Array.unsafe_get src ib
        and x1 = Array.unsafe_get src (ib + 1)
        and x2 = Array.unsafe_get src (ib + 2)
        and x3 = Array.unsafe_get src (ib + 3)
        and x4 = Array.unsafe_get src (ib + 4)
        and x5 = Array.unsafe_get src (ib + 5) in
        for o = 0 to co - 1 do
          let wrow = wbase + (o * 6) in
          let acc =
            0.0
            +. (Array.unsafe_get w wrow *. x0)
            +. (Array.unsafe_get w (wrow + 1) *. x1)
            +. (Array.unsafe_get w (wrow + 2) *. x2)
            +. (Array.unsafe_get w (wrow + 3) *. x3)
            +. (Array.unsafe_get w (wrow + 4) *. x4)
            +. (Array.unsafe_get w (wrow + 5) *. x5)
          in
          Array.unsafe_set dst (ob + o) (Array.unsafe_get dst (ob + o) +. acc)
        done
      done
    done
  else
    for off = 0 to nk - 1 do
      let wbase = off * co * ci in
      for p = Array.unsafe_get ostart off to Array.unsafe_get ostart (off + 1) - 1 do
        let ib = Array.unsafe_get pin p * ci in
        let ob = Array.unsafe_get pout p * co in
        for o = 0 to co - 1 do
          let wrow = wbase + (o * ci) in
          let acc = ref 0.0 in
          for i = 0 to ci - 1 do
            acc := !acc +. (Array.unsafe_get w (wrow + i) *. Array.unsafe_get src (ib + i))
          done;
          Array.unsafe_set dst (ob + o) (Array.unsafe_get dst (ob + o) +. !acc)
        done
      done
    done;
  if relu then
    for k = 0 to (n_out * co) - 1 do
      if not (Array.unsafe_get dst k > 0.0) then Array.unsafe_set dst k 0.0
    done

(* Forward over an explicit kernel map (the cached-pyramid path): the
   kernel above into this layer's scratch, plus the backward caches.  The
   returned map's [feats] is that scratch buffer: it is valid until the
   next [forward] on the same instance, and callers that retain it must
   copy (see DESIGN.md §9 for the ownership rules). *)
let forward_with_map ?(relu = false) t (map : kernel_map) (input : Smap.t) : Smap.t =
  if input.Smap.channels <> t.in_ch then invalid_arg "Sparse_conv.forward: channel mismatch";
  let n_out = Array.length map.out_coords in
  t.scratch_out <- grown t.scratch_out (n_out * t.out_ch);
  forward_into t map ~src:input.Smap.feats ~dst:t.scratch_out ~relu;
  t.cache_map <- Some map;
  t.cache_relu <- relu;
  (* Copy into the reused input cache, don't alias: a caller mutating its
     feature buffer between forward and backward must not corrupt dW. *)
  let in_valid = Smap.nsites input * t.in_ch in
  t.cache_in <- grown t.cache_in in_valid;
  Array.blit input.Smap.feats 0 t.cache_in 0 in_valid;
  t.cache_in_valid <- in_valid;
  t.cache_nsites_out <- n_out;
  {
    Smap.h = map.out_h;
    w = map.out_w;
    coords = map.out_coords;
    channels = t.out_ch;
    feats = t.scratch_out;
  }

let forward t (input : Smap.t) : Smap.t =
  let map =
    build_map ~ksize:t.ksize ~stride:t.stride input.Smap.coords ~h:input.Smap.h
      ~w:input.Smap.w
  in
  forward_with_map t map input

(* Returns d(input feats) in this layer's scratch buffer (valid prefix =
   cached input size; valid until the next backward on this instance);
   accumulates dW and db.  After a [~relu:true] forward, [dout]'s valid
   prefix is masked in place: pass a buffer no caller keeps. *)
let backward t (dout : float array) =
  let map =
    match t.cache_map with
    | Some m -> m
    | None -> invalid_arg "Sparse_conv.backward: no cached forward"
  in
  if Array.length dout < t.cache_nsites_out * t.out_ch then
    invalid_arg "Sparse_conv.backward: dout size mismatch";
  let ci = t.in_ch and co = t.out_ch in
  if t.cache_relu then begin
    (* The forward's ReLU, undone: [out > 0] exactly where the
       pre-activation was [> 0] (NaN and -0.0 included). *)
    let out = t.scratch_out in
    for k = 0 to (t.cache_nsites_out * co) - 1 do
      if not (out.(k) > 0.0) then dout.(k) <- 0.0
    done
  end;
  t.scratch_din <- grown t.scratch_din t.cache_in_valid;
  let din = t.scratch_din in
  Array.fill din 0 t.cache_in_valid 0.0;
  (* bias grads *)
  for s = 0 to t.cache_nsites_out - 1 do
    for o = 0 to co - 1 do
      t.b.Param.grad.(o) <- t.b.Param.grad.(o) +. dout.((s * co) + o)
    done
  done;
  let wdata = t.w.Param.data and wgrad = t.w.Param.grad and cache_in = t.cache_in in
  let nk = Array.length map.off_start - 1 in
  for off = 0 to nk - 1 do
    let wbase = off * co * ci in
    for p = map.off_start.(off) to map.off_start.(off + 1) - 1 do
      let ib = map.pairs_in.(p) * ci and ob = map.pairs_out.(p) * co in
      for o = 0 to co - 1 do
        let g = dout.(ob + o) in
        if g <> 0.0 then begin
          let wrow = wbase + (o * ci) in
          for i = 0 to ci - 1 do
            wgrad.(wrow + i) <- wgrad.(wrow + i) +. (g *. cache_in.(ib + i));
            din.(ib + i) <- din.(ib + i) +. (g *. wdata.(wrow + i))
          done
        end
      done
    done
  done;
  din
