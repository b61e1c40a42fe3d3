(* Open-addressing int -> int hash table over nonnegative keys: the
   allocation-lean replacement for the polymorphic [(int * int, int) Hashtbl]
   that [Sparse_conv.build_map] used to key by coordinate pairs (now only for
   strided maps).  Two flat int arrays, linear probing, no boxing anywhere on
   the lookup path, and fully deterministic (no seeding), so table users keep
   byte-identical iteration behaviour across runs. *)

type t = {
  mutable keys : int array; (* -1 = empty slot *)
  mutable vals : int array;
  mutable mask : int; (* capacity - 1; capacity is a power of two *)
  mutable count : int;
}

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (k * 2)

let create hint =
  let cap = pow2_at_least (max 16 (2 * hint)) 16 in
  { keys = Array.make cap (-1); vals = Array.make cap 0; mask = cap - 1; count = 0 }

(* Multiply-shift mixing: the multiply pushes entropy high, the xor-shift
   folds it back into the masked low bits.  Quality matters little under
   linear probing; determinism and zero allocation do. *)
let[@inline] slot t k =
  let h = k * 0x9E3779B97F4A7C1 in
  (h lxor (h lsr 21)) land t.mask

let find t k ~default =
  let i = ref (slot t k) in
  let res = ref default in
  let continue = ref true in
  while !continue do
    let kk = t.keys.(!i) in
    if kk = k then begin
      res := t.vals.(!i);
      continue := false
    end
    else if kk = -1 then continue := false
    else i := (!i + 1) land t.mask
  done;
  !res

let rec find_or_add t k v =
  if 2 * (t.count + 1) > t.mask + 1 then grow t;
  let i = ref (slot t k) in
  while t.keys.(!i) <> k && t.keys.(!i) <> -1 do
    i := (!i + 1) land t.mask
  done;
  if t.keys.(!i) = k then t.vals.(!i)
  else begin
    t.keys.(!i) <- k;
    t.vals.(!i) <- v;
    t.count <- t.count + 1;
    v
  end

and grow t =
  let okeys = t.keys and ovals = t.vals in
  let cap = 2 * (t.mask + 1) in
  t.keys <- Array.make cap (-1);
  t.vals <- Array.make cap 0;
  t.mask <- cap - 1;
  t.count <- 0;
  Array.iteri (fun i k -> if k >= 0 then ignore (find_or_add t k ovals.(i))) okeys
