(* The pairwise ranking loss (§4.1.3).  The cost model is trained to order
   SuperSchedules, not to regress absolute runtimes:

     L = sum over pairs (s_j, s_k) of  sign(y_j - y_k) * phi(yhat_j - yhat_k)

   with phi the paper's hinge max(0, 1 - x).  [pairwise] also returns
   dL/dyhat for a batch of pairs. *)

(* Returns (loss, dpred) where predictions are laid out pair-major:
   pred.(2*p) is yhat_j, pred.(2*p+1) is yhat_k. *)
let pairwise ?(min_gap = 0.0) ~(truth : float array) ~(pred : float array) () =
  let n2 = Array.length pred in
  if n2 mod 2 <> 0 || Array.length truth <> n2 then
    invalid_arg "Loss.pairwise: expected pair-major layout";
  let npairs = n2 / 2 in
  let dpred = Array.make n2 0.0 in
  let loss = ref 0.0 in
  for p = 0 to npairs - 1 do
    let yj = truth.(2 * p) and yk = truth.((2 * p) + 1) in
    let hj = pred.(2 * p) and hk = pred.((2 * p) + 1) in
    (* sign(y_j - y_k): per the paper, 1 when j is slower, else 0 — pairs are
       oriented so the slower schedule must be predicted larger by margin 1. *)
    let x = hj -. hk in
    if yj -. yk > min_gap && 1.0 -. x > 0.0 then begin
      loss := !loss +. (1.0 -. x);
      dpred.(2 * p) <- dpred.(2 * p) -. 1.0;
      dpred.((2 * p) + 1) <- dpred.((2 * p) + 1) +. 1.0
    end
  done;
  let scale = 1.0 /. float_of_int (max 1 npairs) in
  Array.iteri (fun i g -> dpred.(i) <- g *. scale) dpred;
  (!loss *. scale, dpred)

(* Fraction of pairs ranked correctly — the accuracy metric reported alongside
   the loss curves. *)
let pair_accuracy ~(truth : float array) ~(pred : float array) =
  let n2 = Array.length pred in
  let npairs = n2 / 2 in
  let correct = ref 0 and counted = ref 0 in
  for p = 0 to npairs - 1 do
    let dy = truth.(2 * p) -. truth.((2 * p) + 1) in
    if Float.abs dy > 0.0 then begin
      incr counted;
      let dh = pred.(2 * p) -. pred.((2 * p) + 1) in
      if (dy > 0.0 && dh > 0.0) || (dy < 0.0 && dh < 0.0) then incr correct
    end
  done;
  if !counted = 0 then 1.0 else float_of_int !correct /. float_of_int !counted
