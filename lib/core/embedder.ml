(* The program embedder (§4.1.2, Fig. 11): SuperSchedule parameters in,
   program embedding out.  Categorical parameters pass learnable lookup tables
   (a bias-free linear over a one-hot is exactly a lookup table); permutation
   parameters are flattened permutation matrices through linear-ReLU stacks;
   everything is concatenated and mixed by a final MLP. *)

open Schedule

type t = {
  rank : int;
  split_tables : Nn.Linear.t array; (* one lookup per sparse dim *)
  compute_mlp : Nn.Mlp.t;
  a_order_mlp : Nn.Mlp.t;
  format_table : Nn.Linear.t;
  par_table : Nn.Linear.t;
  threads_table : Nn.Linear.t;
  chunk_table : Nn.Linear.t;
  mixer : Nn.Mlp.t;
  mutable cache_batch : int;
}

let split_embed = 8
let perm_embed = 16
let format_embed = 8
let par_embed = 4
let threads_embed = 2
let chunk_embed = 4

let concat_dim rank =
  (rank * split_embed) + (2 * perm_embed) + format_embed + par_embed + threads_embed
  + chunk_embed

let create rng ~rank =
  let n = 2 * rank in
  let nsplit = Array.length Space.split_options in
  {
    rank;
    split_tables =
      Array.init rank (fun d ->
          Nn.Linear.create rng
            ~name:(Printf.sprintf "emb.split%d" d)
            ~in_dim:nsplit ~out_dim:split_embed);
    compute_mlp =
      Nn.Mlp.create rng ~name:"emb.compute"
        ~dims:[| n * n; 32; perm_embed |]
        ~final_relu:true;
    a_order_mlp =
      Nn.Mlp.create rng ~name:"emb.aorder"
        ~dims:[| n * n; 32; perm_embed |]
        ~final_relu:true;
    format_table =
      Nn.Linear.create rng ~name:"emb.format" ~in_dim:(n * 2) ~out_dim:format_embed;
    par_table = Nn.Linear.create rng ~name:"emb.par" ~in_dim:n ~out_dim:par_embed;
    threads_table =
      Nn.Linear.create rng ~name:"emb.threads" ~in_dim:2 ~out_dim:threads_embed;
    chunk_table =
      Nn.Linear.create rng ~name:"emb.chunk"
        ~in_dim:(Array.length Space.chunk_options)
        ~out_dim:chunk_embed;
    mixer =
      Nn.Mlp.create rng ~name:"emb.mixer"
        ~dims:[| concat_dim rank; 48; Config.embed_dim |]
        ~final_relu:false;
    cache_batch = 0;
  }

let params t =
  List.concat
    [
      List.concat_map Nn.Linear.params (Array.to_list t.split_tables);
      Nn.Mlp.params t.compute_mlp;
      Nn.Mlp.params t.a_order_mlp;
      Nn.Linear.params t.format_table;
      Nn.Linear.params t.par_table;
      Nn.Linear.params t.threads_table;
      Nn.Linear.params t.chunk_table;
      Nn.Mlp.params t.mixer;
    ]

(* Forward-only copy for another domain: shared parameters, private caches. *)
let replicate t =
  {
    t with
    split_tables = Array.map Nn.Linear.replicate t.split_tables;
    compute_mlp = Nn.Mlp.replicate t.compute_mlp;
    a_order_mlp = Nn.Mlp.replicate t.a_order_mlp;
    format_table = Nn.Linear.replicate t.format_table;
    par_table = Nn.Linear.replicate t.par_table;
    threads_table = Nn.Linear.replicate t.threads_table;
    chunk_table = Nn.Linear.replicate t.chunk_table;
    mixer = Nn.Mlp.replicate t.mixer;
    cache_batch = 0;
  }

let out_dim _ = Config.embed_dim

(* Batched forward: one embedding row per schedule. *)
let forward t (schedules : Superschedule.t array) =
  let batch = Array.length schedules in
  t.cache_batch <- batch;
  let encs = Array.map Encode.encode schedules in
  let gather f width =
    let flat = Array.make (batch * width) 0.0 in
    Array.iteri (fun b enc -> Array.blit (f enc) 0 flat (b * width) width) encs;
    flat
  in
  let n = 2 * t.rank in
  let nsplit = Array.length Space.split_options in
  let split_embs =
    Array.mapi
      (fun d table ->
        Nn.Linear.forward table ~batch
          (gather (fun e -> e.Encode.split_onehots.(d)) nsplit))
      t.split_tables
  in
  let compute_emb =
    Nn.Mlp.forward t.compute_mlp ~batch (gather (fun e -> e.Encode.compute_perm) (n * n))
  in
  let a_emb =
    Nn.Mlp.forward t.a_order_mlp ~batch (gather (fun e -> e.Encode.a_perm) (n * n))
  in
  let fmt_emb =
    Nn.Linear.forward t.format_table ~batch
      (gather (fun e -> e.Encode.a_format_onehot) (n * 2))
  in
  let par_emb =
    Nn.Linear.forward t.par_table ~batch (gather (fun e -> e.Encode.par_onehot) n)
  in
  let thr_emb =
    Nn.Linear.forward t.threads_table ~batch
      (gather (fun e -> e.Encode.threads_onehot) 2)
  in
  let chk_emb =
    Nn.Linear.forward t.chunk_table ~batch
      (gather (fun e -> e.Encode.chunk_onehot) (Array.length Space.chunk_options))
  in
  (* Row-wise concatenation. *)
  let cd = concat_dim t.rank in
  let concat = Array.make (batch * cd) 0.0 in
  let copy_seg src width offset =
    for b = 0 to batch - 1 do
      Array.blit src (b * width) concat ((b * cd) + offset) width
    done
  in
  let off = ref 0 in
  Array.iter
    (fun se ->
      copy_seg se split_embed !off;
      off := !off + split_embed)
    split_embs;
  copy_seg compute_emb perm_embed !off;
  off := !off + perm_embed;
  copy_seg a_emb perm_embed !off;
  off := !off + perm_embed;
  copy_seg fmt_emb format_embed !off;
  off := !off + format_embed;
  copy_seg par_emb par_embed !off;
  off := !off + par_embed;
  copy_seg thr_emb threads_embed !off;
  off := !off + threads_embed;
  copy_seg chk_emb chunk_embed !off;
  (* Fresh exact-size result at the model boundary: callers (tuner index
     build, tests) retain embeddings across calls, so the mixer's scratch
     buffer must not leak out (DESIGN.md §9). *)
  Array.sub (Nn.Mlp.forward t.mixer ~batch concat) 0 (batch * Config.embed_dim)

(* Backward from d(embedding); one-hot inputs need no input gradient. *)
let backward t (dout : float array) =
  let batch = t.cache_batch in
  let cd = concat_dim t.rank in
  let dconcat = Nn.Mlp.backward t.mixer dout in
  let slice offset width =
    let s = Array.make (batch * width) 0.0 in
    for b = 0 to batch - 1 do
      Array.blit dconcat ((b * cd) + offset) s (b * width) width
    done;
    s
  in
  let off = ref 0 in
  Array.iter
    (fun table ->
      ignore (Nn.Linear.backward table (slice !off split_embed));
      off := !off + split_embed)
    t.split_tables;
  ignore (Nn.Mlp.backward t.compute_mlp (slice !off perm_embed));
  off := !off + perm_embed;
  ignore (Nn.Mlp.backward t.a_order_mlp (slice !off perm_embed));
  off := !off + perm_embed;
  ignore (Nn.Linear.backward t.format_table (slice !off format_embed));
  off := !off + format_embed;
  ignore (Nn.Linear.backward t.par_table (slice !off par_embed));
  off := !off + par_embed;
  ignore (Nn.Linear.backward t.threads_table (slice !off threads_embed));
  off := !off + threads_embed;
  ignore (Nn.Linear.backward t.chunk_table (slice !off chunk_embed))
