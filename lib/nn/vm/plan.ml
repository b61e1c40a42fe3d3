(* Instruction tape + view planner for the inference VM (DESIGN.md §14).

   Compilation walks a model's layers once and emits fused instructions over
   arena buffer views; execution replays the tape with zero steady-state
   allocation.  The plan only schedules: each instruction hands arena views
   to its layer's one forward kernel ([Linear.forward_into],
   [Sparse_conv.forward_into], [Pool.forward_into]) — the kernels the
   training forwards call too — so plan and eager results are bitwise equal
   by construction, with no arithmetic here to keep in sync. *)

type view = { buf : int; off : int; stride : int }

type instr =
  | Gemm of {
      lin : Nn.Linear.t;
      src : view;
      dst : view;
      relu : bool;
      cols : (int * int) option; (* reduction window; None = all columns *)
      seed : int; (* arena slot of the accumulator seed; -1 = the bias *)
    }
  | Conv of {
      conv : Nn.Sparse_conv.t;
      layer : int;
      src : int; (* -1 = the bound per-item input features *)
      dst : int;
      relu : bool;
    }
  | Pool of { src : int; channels : int; layer : int; dst : view }

type t = {
  arena : Arena.t;
  per_item : instr array;
  batched : instr array;
  maps : Nn.Sparse_conv.kernel_map array; (* per-item bindings, one per layer slot *)
  mutable input_feats : float array; (* per-item binding for [src = -1] convs *)
  mutable item : int;
  out : view;
}

(* Compilation ------------------------------------------------------------ *)

type builder = {
  mutable nbufs : int;
  mutable rev_item : instr list;
  mutable rev_batched : instr list;
}

let builder () = { nbufs = 0; rev_item = []; rev_batched = [] }

let fresh b =
  let id = b.nbufs in
  b.nbufs <- id + 1;
  id

let gemm ?cols ?(seed = -1) b lin ~src ~dst ~relu =
  b.rev_batched <- Gemm { lin; src; dst; relu; cols; seed } :: b.rev_batched

let mlp ?cols ?seed b (m : Nn.Mlp.t) ~src ~dst =
  let layers = Nn.Mlp.layers m in
  let n = Array.length layers in
  let cur = ref src in
  for l = 0 to n - 1 do
    let lin = layers.(l) in
    let d =
      if l = n - 1 then dst
      else { buf = fresh b; off = 0; stride = lin.Nn.Linear.out_dim }
    in
    if l = 0 then gemm ?cols ?seed b lin ~src:!cur ~dst:d ~relu:(Nn.Mlp.relu_after m l)
    else gemm b lin ~src:!cur ~dst:d ~relu:(Nn.Mlp.relu_after m l);
    cur := d
  done

let conv b c ~layer ~src ~dst ~relu =
  b.rev_item <- Conv { conv = c; layer; src; dst; relu } :: b.rev_item

let pool b ~src ~channels ~layer ~dst =
  b.rev_item <- Pool { src; channels; layer; dst } :: b.rev_item

(* Kernel maps are bound per item; slots start on a shared empty map so an
   unbound slot reads as zero sites rather than tripping unsafe accesses. *)
let empty_map =
  {
    Nn.Sparse_conv.out_coords = [||];
    out_h = 0;
    out_w = 0;
    off_start = [| 0 |];
    pairs_in = [||];
    pairs_out = [||];
  }

let finish b ~nlayers ~out =
  {
    arena = Arena.create ~n:b.nbufs;
    per_item = Array.of_list (List.rev b.rev_item);
    batched = Array.of_list (List.rev b.rev_batched);
    maps = Array.make nlayers empty_map;
    input_feats = [||];
    item = 0;
    out;
  }

(* Execution -------------------------------------------------------------- *)

let buffer t id ~len =
  Arena.ensure t.arena id len;
  Arena.get t.arena id

let start_item t n = t.item <- n

let bind_map t i map = t.maps.(i) <- map

let set_input_feats t feats = t.input_feats <- feats

(* Pre-size every cross-item view destination before any instruction runs:
   arena growth zeroes, so a buffer filled one row per item (the pooled
   concat) must never grow mid-batch. *)
let ensure_views t ~batch instrs =
  for k = 0 to Array.length instrs - 1 do
    match Array.unsafe_get instrs k with
    | Gemm g ->
        Arena.ensure t.arena g.dst.buf
          (g.dst.off + ((batch - 1) * g.dst.stride) + g.lin.Nn.Linear.out_dim)
    | Pool p ->
        Arena.ensure t.arena p.dst.buf (p.dst.off + ((batch - 1) * p.dst.stride) + p.channels)
    | Conv _ -> () (* sized per item at exec (site-count dependent) *)
  done

let begin_batch t ~batch =
  if batch > 0 then begin
    ensure_views t ~batch t.per_item;
    ensure_views t ~batch t.batched
  end

let exec_gemm t ~batch (lin : Nn.Linear.t) ~(src : view) ~(dst : view) ~relu ~cols ~seed =
  let seed = if seed < 0 then None else Some (Arena.get t.arena seed) in
  Nn.Linear.forward_into ?cols ?seed lin ~batch
    ~src:(Arena.get t.arena src.buf)
    ~src_off:src.off ~src_stride:src.stride
    ~dst:(Arena.get t.arena dst.buf)
    ~dst_off:dst.off ~dst_stride:dst.stride ~relu

let exec_conv t (c : Nn.Sparse_conv.t) ~layer ~src ~dst ~relu =
  let map = t.maps.(layer) in
  Arena.ensure t.arena dst (Array.length map.Nn.Sparse_conv.out_coords * c.Nn.Sparse_conv.out_ch);
  Nn.Sparse_conv.forward_into c map
    ~src:(if src < 0 then t.input_feats else Arena.get t.arena src)
    ~dst:(Arena.get t.arena dst) ~relu

(* A short pool row means [begin_batch] did not size the view. *)
let exec_pool t ~src ~channels ~layer ~(dst : view) =
  Nn.Pool.forward_into
    ~nsites:(Array.length t.maps.(layer).Nn.Sparse_conv.out_coords)
    ~channels ~src:(Arena.get t.arena src) ~dst:(Arena.get t.arena dst.buf)
    ~dst_off:(dst.off + (t.item * dst.stride))

let exec t ~batch instrs =
  for k = 0 to Array.length instrs - 1 do
    match Array.unsafe_get instrs k with
    | Gemm { lin; src; dst; relu; cols; seed } ->
        exec_gemm t ~batch lin ~src ~dst ~relu ~cols ~seed
    | Conv { conv; layer; src; dst; relu } -> exec_conv t conv ~layer ~src ~dst ~relu
    | Pool { src; channels; layer; dst } -> exec_pool t ~src ~channels ~layer ~dst
  done

let run_item t = exec t ~batch:1 t.per_item

let run_batch t ~batch =
  begin_batch t ~batch;
  if batch > 0 then exec t ~batch t.batched;
  Arena.get t.arena t.out.buf
