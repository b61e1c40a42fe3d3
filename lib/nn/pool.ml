(* Global average pooling over a sparse feature map: mean per channel across
   sites.  WACONet pools after *every* layer and concatenates the results to
   compensate for its narrow channel width (Fig. 9).

   Results live in grow-only per-instance scratch buffers, valid until the
   next call on the same instance (DESIGN.md §9). *)

type t = {
  mutable nsites : int;
  mutable channels : int;
  mutable out : float array; (* grow-only forward scratch *)
  mutable din : float array; (* grow-only backward scratch *)
}

let create () = { nsites = 0; channels = 0; out = [||]; din = [||] }

let[@inline] grown buf need = if Array.length buf < need then Array.make need 0.0 else buf

(* The layer's one forward kernel, run by [forward]: the per-channel mean of
   [nsites] site-major rows of [src] into [dst.(dst_off ..+ channels)]. *)
let forward_into ~nsites ~channels ~src ~dst ~dst_off =
  if dst_off < 0 || dst_off + channels > Array.length dst then
    invalid_arg "Pool.forward_into: dst too short";
  if nsites * channels > Array.length src then invalid_arg "Pool.forward_into: src too short";
  for ch = 0 to channels - 1 do
    Array.unsafe_set dst (dst_off + ch) 0.0
  done;
  if nsites > 0 then begin
    for s = 0 to nsites - 1 do
      let sb = s * channels in
      for ch = 0 to channels - 1 do
        Array.unsafe_set dst (dst_off + ch)
          (Array.unsafe_get dst (dst_off + ch) +. Array.unsafe_get src (sb + ch))
      done
    done;
    let scale = 1.0 /. float_of_int nsites in
    for ch = 0 to channels - 1 do
      Array.unsafe_set dst (dst_off + ch) (Array.unsafe_get dst (dst_off + ch) *. scale)
    done
  end

let forward t (m : Smap.t) =
  let n = Smap.nsites m and c = m.Smap.channels in
  t.nsites <- n;
  t.channels <- c;
  t.out <- grown t.out c;
  forward_into ~nsites:n ~channels:c ~src:m.Smap.feats ~dst:t.out ~dst_off:0;
  t.out

(* d(feats) from d(pooled); pure assignment over the valid prefix, so no
   zero-fill of the scratch is needed. *)
let backward t (dout : float array) =
  if Array.length dout < t.channels then invalid_arg "Pool.backward: size mismatch";
  let n = t.nsites and c = t.channels in
  t.din <- grown t.din (n * c);
  let din = t.din in
  if n > 0 then begin
    let scale = 1.0 /. float_of_int n in
    for s = 0 to n - 1 do
      for ch = 0 to c - 1 do
        din.((s * c) + ch) <- dout.(ch) *. scale
      done
    done
  end;
  din
