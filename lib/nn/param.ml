(* A trainable parameter tensor: flat data plus an accumulated gradient.
   All layers expose their parameters as [Param.t] lists so one optimizer can
   drive any composition of layers. *)


type t = { name : string; data : float array; grad : float array }

let create ~name n = { name; data = Array.make n 0.0; grad = Array.make n 0.0 }

(* Glorot/Xavier-uniform initialization. *)
let xavier rng ~name ~fan_in ~fan_out n =
  let bound = sqrt (6.0 /. float_of_int (fan_in + fan_out)) in
  {
    name;
    data = Array.init n (fun _ -> Sptensor.Rng.float_in rng (-.bound) bound);
    grad = Array.make n 0.0;
  }

let zero_grad t = Array.fill t.grad 0 (Array.length t.grad) 0.0

let zero_grads params = List.iter zero_grad params

let size t = Array.length t.data

(* Flat serialization used by model save/load. *)
let dump t buf =
  Buffer.add_string buf (Printf.sprintf "%s %d\n" t.name (size t));
  Array.iter (fun v -> Buffer.add_string buf (Printf.sprintf "%.17g\n" v)) t.data

let grad_l2 params =
  sqrt
    (List.fold_left
       (fun acc p -> Array.fold_left (fun a g -> a +. (g *. g)) acc p.grad)
       0.0 params)
