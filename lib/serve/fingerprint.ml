(* The sparsity-pattern fingerprint the schedule cache is keyed by: shape +
   nonzero count + a fixed-size pooled density sketch.

   The sketch pools the pattern onto a [cells] x [cells] grid (each cell
   covers an equal slab of rows x cols), counts the nonzeros landing in each
   cell, normalizes by the total and quantizes to a byte.  Two matrices with
   the same shape, nnz and coarse density layout — the inputs WACO's
   extractor is sensitive to at the top of its pyramid — therefore share a
   key and a cached answer, while a transposed, re-banded or re-clustered
   pattern of the same size does not.

   Quantization makes the key stable under float noise: the sketch is pure
   integer arithmetic from the COO coordinates. *)

open Sptensor

let cells = 8

type t = {
  nrows : int;
  ncols : int;
  nnz : int;
  sketch : int array;  (* cells * cells bytes, row-major, each 0..255 *)
}

let of_coo (m : Coo.t) =
  let nnz = Coo.nnz m in
  let counts = Array.make (cells * cells) 0 in
  for k = 0 to nnz - 1 do
    (* Cell index by integer proportion: row r of nrows lands in cell
       r * cells / nrows (nrows >= 1 by Coo's construction). *)
    let cr = m.Coo.rows.(k) * cells / m.Coo.nrows in
    let cc = m.Coo.cols.(k) * cells / m.Coo.ncols in
    let cr = min (cells - 1) cr and cc = min (cells - 1) cc in
    counts.((cr * cells) + cc) <- counts.((cr * cells) + cc) + 1
  done;
  let sketch =
    if nnz = 0 then counts
    else
      Array.map
        (fun c ->
          (* Rounded 0..255 share of the total; a nonempty cell never
             quantizes to 0, so presence is preserved. *)
          let q = ((c * 255) + (nnz / 2)) / nnz in
          if c > 0 then max 1 (min 255 q) else 0)
        counts
  in
  { nrows = m.Coo.nrows; ncols = m.Coo.ncols; nnz; sketch }

let hex_digits = "0123456789abcdef"

(* The sketch's hex digits are written from a digit table into one buffer:
   each byte as two lowercase digits, exactly what "%02x" printed. *)
let key t =
  let prefix =
    String.concat ""
      [ "fp1:"; string_of_int t.nrows; "x"; string_of_int t.ncols; ":";
        string_of_int t.nnz; ":" ]
  in
  let p = String.length prefix in
  let b = Bytes.create (p + (2 * Array.length t.sketch)) in
  Bytes.blit_string prefix 0 b 0 p;
  Array.iteri
    (fun i v ->
      Bytes.unsafe_set b (p + (2 * i)) hex_digits.[(v lsr 4) land 15];
      Bytes.unsafe_set b (p + (2 * i) + 1) hex_digits.[v land 15])
    t.sketch;
  Bytes.unsafe_to_string b

let of_key s =
  match String.split_on_char ':' s with
  | [ "fp1"; dims; nnz_s; hex ] -> (
      match String.split_on_char 'x' dims with
      | [ r; c ] -> (
          match
            (int_of_string_opt r, int_of_string_opt c, int_of_string_opt nnz_s)
          with
          | Some nrows, Some ncols, Some nnz
            when nrows >= 1 && ncols >= 1 && nnz >= 0
                 && String.length hex = 2 * cells * cells -> (
              let sketch = Array.make (cells * cells) 0 in
              match
                Array.iteri
                  (fun i _ ->
                    match int_of_string_opt ("0x" ^ String.sub hex (2 * i) 2) with
                    | Some b -> sketch.(i) <- b
                    | None -> raise Exit)
                  sketch
              with
              | () -> Some { nrows; ncols; nnz; sketch }
              | exception Exit -> None)
          | _ -> None)
      | _ -> None)
  | _ -> None

let equal a b =
  a.nrows = b.nrows && a.ncols = b.ncols && a.nnz = b.nnz && a.sketch = b.sketch

let pp fmt t =
  Format.fprintf fmt "%dx%d nnz=%d sketch=%s" t.nrows t.ncols t.nnz
    (String.concat ","
       (Array.to_list (Array.map string_of_int t.sketch)))
