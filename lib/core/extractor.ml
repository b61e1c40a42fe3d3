(* Sparsity-pattern feature extractors — WACONet and the three alternatives it
   is compared against in Fig. 15.  All variants map a pattern to a
   [Config.feature_dim]-vector:

   - [Waconet]   (§4.1.1, Fig. 9): 5x5 stride-1 sparse conv over the *raw*
     pattern, then stride-2 3x3 sparse convs; global-average-pool after every
     layer, concatenate all pooled vectors, final linear.
   - [Minkowski] : stride-1 sparse convs with one final pooling — receptive
     field cannot bridge distant nonzeros (Fig. 8a).
   - [Dense_conv]: the conventional-CNN approach — the pattern is downsampled
     onto a 64x64 grid first (losing local structure, Fig. 5), then convolved;
     submanifold convolution over an all-sites map is exactly dense
     convolution.
   - [Human]     : the (rows, cols, nnz) hand-crafted statistics through an
     MLP. *)

open Sptensor

type kind = Human | Dense_conv | Minkowski | Waconet

let kind_name = function
  | Human -> "HumanFeature"
  | Dense_conv -> "DenseConv"
  | Minkowski -> "MinkowskiNet"
  | Waconet -> "WACONet"

(* Pattern input: raw sparse map, plus the lazily built downsampled map and
   hand statistics (log-scaled) that only [Dense_conv] and [Human] read.
   Built once per matrix.  [pyramids] memoizes each conv stack's coordinate
   pyramid keyed by [(arch, use_down)]: it lives as long as its pattern. *)
type input = {
  id : string;
  smap : Nn.Smap.t;
  down : Nn.Smap.t Lazy.t;
  human : float array Lazy.t;
  mutable pyramids : pyramids;
}

and pyramids = ((int * int) list * bool * Nn.Pyramid.t) list

let input_of_coo ~id (m : Coo.t) =
  {
    id;
    smap = Nn.Smap.of_coo m;
    down = lazy (Nn.Smap.downsample m ~target:Config.dense_conv_target);
    human =
      lazy
        (Array.map
           (fun x -> log (1.0 +. x))
           (Stats.human_features ~rich:false (Stats.compute m)));
    pyramids = [];
  }

let input_of_tensor3 ~id (t : Tensor3.t) = input_of_coo ~id (Tensor3.flatten t)

type conv_stack = {
  convs : Nn.Sparse_conv.t array; (* each with its ReLU fused *)
  pools : Nn.Pool.t array; (* length = nconvs if pool_all, else 1 *)
  pool_all : bool;
  head : Nn.Linear.t; (* pooled concat -> feature *)
  arch : (int * int) list; (* (ksize, stride) per conv *)
  use_down : bool;
}

type body = Conv of conv_stack | Mlp of Nn.Mlp.t

type t = { kind : kind; body : body; out_dim : int }

let conv_arch = function
  | Waconet -> ((5, 1) :: List.init Config.waconet_strided_layers (fun _ -> (3, 2)), true, false)
  | Minkowski -> ([ (5, 1); (3, 1); (3, 1); (3, 1) ], false, false)
  | Dense_conv -> ((5, 1) :: List.init 6 (fun _ -> (3, 2)), false, true)
  | Human -> ([], false, false)

let conv_layers kind =
  let arch, _, _ = conv_arch kind in
  arch

let create rng kind =
  let out_dim = Config.feature_dim in
  match kind with
  | Human ->
      {
        kind;
        body = Mlp (Nn.Mlp.create rng ~name:"human" ~dims:[| 3; 32; out_dim |] ~final_relu:true);
        out_dim;
      }
  | _ ->
      let arch, pool_all, use_down = conv_arch kind in
      let c = Config.channels in
      let nconv = List.length arch in
      let convs =
        Array.of_list
          (List.mapi
             (fun i (ksize, stride) ->
               Nn.Sparse_conv.create rng
                 ~name:(Printf.sprintf "%s.conv%d" (kind_name kind) i)
                 ~in_ch:(if i = 0 then 1 else c)
                 ~out_ch:c ~ksize ~stride)
             arch)
      in
      let npools = if pool_all then nconv else 1 in
      let head =
        Nn.Linear.create rng
          ~name:(kind_name kind ^ ".head")
          ~in_dim:(npools * c) ~out_dim
      in
      {
        kind;
        body =
          Conv
            {
              convs;
              pools = Array.init npools (fun _ -> Nn.Pool.create ());
              pool_all;
              head;
              arch;
              use_down;
            };
        out_dim;
      }

let params t =
  match t.body with
  | Mlp m -> Nn.Mlp.params m
  | Conv c ->
      List.concat_map Nn.Sparse_conv.params (Array.to_list c.convs)
      @ Nn.Linear.params c.head

(* Forward-only copy for another domain: parameters are shared (reads only),
   layer caches are private. *)
let replicate t =
  match t.body with
  | Mlp m -> { t with body = Mlp (Nn.Mlp.replicate m) }
  | Conv c ->
      {
        t with
        body =
          Conv
            {
              c with
              convs = Array.map Nn.Sparse_conv.replicate c.convs;
              pools = Array.map (fun _ -> Nn.Pool.create ()) c.pools;
              head = Nn.Linear.replicate c.head;
            };
      }

(* The input's pyramid for this stack, built on first use.  The hit path
   allocates nothing. *)
let rec find_pyramid (c : conv_stack) (input : input) = function
  | (arch, use_down, p) :: rest ->
      if use_down = c.use_down && arch = c.arch then p
      else find_pyramid c input rest
  | [] ->
      let base = if c.use_down then Lazy.force input.down else input.smap in
      let p = Nn.Pyramid.build base ~layers:c.arch in
      input.pyramids <- (c.arch, c.use_down, p) :: input.pyramids;
      p

let pyramid_of c input = find_pyramid c input input.pyramids

(* Forward one pattern to its feature vector.  Layer caches are retained for
   an immediately following [backward].

   Internally the layers hand each other grow-only scratch buffers (only the
   valid prefix is meaningful — DESIGN.md §9); the result crossing the model
   boundary is a fresh exact-size array, because callers retain features
   across calls. *)
let forward t (input : input) =
  match t.body with
  | Mlp m -> Array.sub (Nn.Mlp.forward m ~batch:1 (Lazy.force input.human)) 0 t.out_dim
  | Conv c ->
      let pyr = pyramid_of c input in
      let nconv = Array.length c.convs in
      let pooled = ref [] in
      let cur = ref pyr.Nn.Pyramid.base in
      for i = 0 to nconv - 1 do
        let m =
          Nn.Sparse_conv.forward_with_map ~relu:true c.convs.(i) pyr.Nn.Pyramid.maps.(i) !cur
        in
        if c.pool_all then pooled := Nn.Pool.forward c.pools.(i) m :: !pooled
        else if i = nconv - 1 then pooled := [ Nn.Pool.forward c.pools.(0) m ];
        cur := m
      done;
      (* Pool scratch buffers are exactly [Config.channels] long (the pooled
         width never varies per instance), so concatenating them whole is the
         valid data. *)
      let concat = Array.concat (List.rev !pooled) in
      Array.sub (Nn.Linear.forward c.head ~batch:1 concat) 0 t.out_dim

(* Accumulate parameter gradients from d(feature). *)
let backward t (dfeat : float array) =
  match t.body with
  | Mlp m -> ignore (Nn.Mlp.backward m dfeat)
  | Conv c ->
      let nconv = Array.length c.convs in
      let dconcat = Nn.Linear.backward c.head dfeat in
      let ch = Config.channels in
      let dpool i =
        if c.pool_all then Array.sub dconcat (i * ch) ch
        else Array.sub dconcat 0 ch
      in
      (* Walk layers deepest-first, merging pooled gradients with the gradient
         arriving from the next conv in place.  Buffers may be longer than
         their valid prefix; the valid extent at layer [i]'s output is what
         its conv cached.  Each d(output) is a layer scratch buffer nothing
         else keeps, so the conv may mask it by its ReLU in place. *)
      let dnext = ref [||] in
      for i = nconv - 1 downto 0 do
        let conv = c.convs.(i) in
        let n_valid =
          conv.Nn.Sparse_conv.cache_nsites_out * conv.Nn.Sparse_conv.out_ch
        in
        let dact =
          if i = nconv - 1 then Nn.Pool.backward c.pools.(if c.pool_all then i else 0) (dpool i)
          else if c.pool_all then begin
            let dpooled = Nn.Pool.backward c.pools.(i) (dpool i) in
            let d = !dnext in
            for k = 0 to n_valid - 1 do
              d.(k) <- d.(k) +. dpooled.(k)
            done;
            d
          end
          else !dnext
        in
        dnext := Nn.Sparse_conv.backward conv dact
      done
