(* A stack of Linear layers with ReLU between them (and optionally after the
   last one) — the "multiple linear-ReLU layers" building block the paper's
   cost model uses everywhere (Figs. 6, 9, 11). *)

type t = { linears : Linear.t array; final_relu : bool }

let create rng ~name ~dims ~final_relu =
  let n = Array.length dims - 1 in
  if n < 1 then invalid_arg "Mlp.create: need at least one layer";
  let linears =
    Array.init n (fun l ->
        Linear.create rng
          ~name:(Printf.sprintf "%s.%d" name l)
          ~in_dim:dims.(l) ~out_dim:dims.(l + 1))
  in
  { linears; final_relu }

let params t =
  Array.to_list t.linears |> List.concat_map Linear.params

(* Forward-only copy for another domain: shared parameters, private caches. *)
let replicate t =
  { t with linears = Array.map Linear.replicate t.linears }

let out_dim t = t.linears.(Array.length t.linears - 1).Linear.out_dim

let in_dim t = t.linears.(0).Linear.in_dim

let layers t = t.linears

let relu_after t l = t.final_relu || l < Array.length t.linears - 1

let forward t ~batch x =
  (* Width guard: a caller whose row builder disagrees with the stack's
     input width (e.g. rows missing a kernel-conditioning slot) must fail
     here, loudly, not mis-slice its way to plausible garbage.  Longer is
     fine — callers may hand over grow-only scratch buffers. *)
  if Array.length x < batch * in_dim t then
    invalid_arg
      (Printf.sprintf "Mlp.forward: %d floats for batch %d of width %d"
         (Array.length x) batch (in_dim t));
  let cur = ref x in
  for l = 0 to Array.length t.linears - 1 do
    cur := Linear.forward ~relu:(relu_after t l) t.linears.(l) ~batch !cur
  done;
  !cur

(* Each layer masks d(output) by its own fused ReLU. *)
let backward t dout =
  let cur = ref dout in
  for l = Array.length t.linears - 1 downto 0 do
    cur := Linear.backward t.linears.(l) !cur
  done;
  !cur
