(** Compile-once/execute-many inference plans (DESIGN.md §14).

    A plan is a topologically ordered instruction tape compiled once from a
    model's layers and executed many times over batches of inputs.  The
    plan schedules and the layers compute: each instruction binds arena
    views and calls its layer's one forward kernel — the same kernel the
    training forward calls — so plan results are bitwise-equal to the eager
    layers by construction (pinned by test/test_vm.ml).  Three instruction
    kinds cover the extractor→embedder→MLP hot path:

    - [Gemm]: {!Nn.Linear.forward_into} per linear layer — a blocked
      (row-tiled) batched GEMM with the bias add and an optional trailing
      ReLU fused in.  Source and destination are strided row views, so
      producers write straight into a consumer's input matrix (e.g.
      embedder tables into columns of the concat buffer) instead of
      copying.
    - [Conv]: {!Nn.Sparse_conv.forward_into} over a per-item kernel-map
      binding, ReLU fused, executed once per batch element.
    - [Pool]: {!Nn.Pool.forward_into}, global average pooling of a conv
      output into one row slice of a batch matrix (the fused pool+concat
      of WACONet).

    All intermediate values live in a grow-only {!Arena}; steady-state
    execution allocates zero bytes.  Plans are forward-only and, like eager
    scratch buffers, single-domain: replicas must compile their own plan.

    Execution protocol:
    - batched tape only (MLP-shaped plans):
      fill {!buffer}, then {!run_batch}.
    - with a per-item tape (sparse-conv plans): {!begin_batch}, then per
      item [n]: {!start_item}[ n], {!bind_map}/{!set_input_feats},
      {!run_item}; finally {!run_batch}. *)

type view = { buf : int; off : int; stride : int }
(** A strided row view into arena buffer [buf]: row [n] occupies
    [off + n * stride .. off + n * stride + width - 1]. *)

type t

(** {1 Compilation} *)

type builder

val builder : unit -> builder

val fresh : builder -> int
(** Allocate an arena buffer slot for a planned value. *)

val gemm :
  ?cols:int * int -> ?seed:int -> builder -> Nn.Linear.t -> src:view -> dst:view ->
  relu:bool -> unit
(** Append a batched fused GEMM to the batched tape.  Parameters are shared
    with the eager layer (in-place optimizer updates stay visible).
    [cols] and [seed] are {!Nn.Linear.forward_into}'s reduction window and
    accumulator seed; [seed] names the arena slot holding the seed vector
    (filled through {!buffer} before {!run_batch}), default the bias. *)

val mlp :
  ?cols:int * int -> ?seed:int -> builder -> Nn.Mlp.t -> src:view -> dst:view -> unit
(** Append one fused GEMM per layer of the MLP, threading internal views;
    ReLU placement (including [final_relu]) mirrors {!Nn.Mlp.forward}.  The
    final layer writes into [dst].  [cols] and [seed] apply to the first
    layer, as in {!gemm}: the MLP resumes a first-layer reduction whose
    leading columns were computed elsewhere. *)

val conv : builder -> Nn.Sparse_conv.t -> layer:int -> src:int -> dst:int -> relu:bool -> unit
(** Append a sparse conv to the per-item tape.  [layer] names the kernel-map
    binding slot ({!bind_map}); [src = -1] reads the per-item input features
    ({!set_input_feats}), otherwise a site-major arena buffer. *)

val pool : builder -> src:int -> channels:int -> layer:int -> dst:view -> unit
(** Append a global average pool to the per-item tape: mean over the sites
    of binding slot [layer]'s map, written into [dst]'s current-item row. *)

val finish : builder -> nlayers:int -> out:view -> t
(** Seal the tape.  [nlayers] is the number of kernel-map binding slots;
    [out] is the view {!run_batch} returns the backing buffer of. *)

(** {1 Execution} *)

val buffer : t -> int -> len:int -> float array
(** Grow arena slot to at least [len] and borrow it — how callers fill input
    buffers before {!run_batch}. *)

val begin_batch : t -> batch:int -> unit
(** Pre-size every cross-item view destination (pooled-concat rows, GEMM
    outputs) for [batch] rows.  Must precede the first {!run_item} of a
    batch; {!run_batch} re-runs it (a no-op once sized). *)

val start_item : t -> int -> unit
(** Select the batch row the per-item tape writes into. *)

val bind_map : t -> int -> Nn.Sparse_conv.kernel_map -> unit
(** Bind layer slot [i]'s kernel map for the current item. *)

val set_input_feats : t -> float array -> unit
(** Bind the current item's input feature array (read by [src = -1] convs;
    borrowed, never written). *)

val run_item : t -> unit
(** Execute the per-item tape for the current item and bindings. *)

val run_batch : t -> batch:int -> float array
(** Execute the batched tape over [batch] rows and return the output view's
    backing buffer (borrowed: valid until the next execution or growth).
    Steady state allocates zero bytes. *)
