(* HNSW tests: recall against brute force, generic-measure search. *)

open Sptensor

let rng () = Rng.create 606

let random_vec r dim = Array.init dim (fun _ -> Rng.float_in r (-1.0) 1.0)

let build r ~n ~dim =
  let h = Anns.Hnsw.create ~dim r in
  let vecs = Array.init n (fun i -> (random_vec r dim, i)) in
  Array.iter (fun (v, payload) -> Anns.Hnsw.insert h v payload) vecs;
  (h, vecs)

let test_heap_orders () =
  let h = Anns.Heap.create () in
  List.iter (fun x -> Anns.Heap.push h x x) [ 3.0; 1.0; 2.0; 0.5; 5.0 ];
  let order = ref [] in
  let rec drain () =
    match Anns.Heap.pop h with
    | Some (p, _) ->
        order := p :: !order;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list (float 1e-12))) "min-heap order"
    [ 5.0; 3.0; 2.0; 1.0; 0.5 ] !order

let test_hnsw_exact_small () =
  let r = rng () in
  let h, vecs = build r ~n:50 ~dim:4 in
  (* query at each point finds itself *)
  Array.iter
    (fun (v, payload) ->
      match Anns.Hnsw.search h ~query:v ~k:1 () with
      | [ (d, id) ] ->
          Alcotest.(check (float 1e-9)) "self distance" 0.0 d;
          Alcotest.(check int) "self found" payload (Anns.Hnsw.get_payload h id)
      | _ -> Alcotest.fail "expected one result")
    vecs

let recall r ~n ~dim ~k ~queries =
  let h, _ = build r ~n ~dim in
  let hits = ref 0 and total = ref 0 in
  for _ = 1 to queries do
    let q = random_vec r dim in
    let approx = Anns.Hnsw.search h ~query:q ~k ~ef:60 () |> List.map snd in
    let exact = Anns.Hnsw.brute_force h ~query:q ~k |> List.map snd in
    List.iter
      (fun id ->
        incr total;
        if List.mem id approx then incr hits)
      exact
  done;
  float_of_int !hits /. float_of_int (max 1 !total)

let test_hnsw_recall () =
  let r = rng () in
  let rec_at = recall r ~n:600 ~dim:8 ~k:10 ~queries:20 in
  Alcotest.(check bool)
    (Printf.sprintf "recall@10 >= 0.9 (got %.3f)" rec_at)
    true (rec_at >= 0.9)

let test_hnsw_search_by_generic () =
  let r = rng () in
  let h, vecs = build r ~n:400 ~dim:6 in
  (* generic score: distance to a hidden target vector — not the L2-to-query
     used at build time, exercising the generic-measure traversal *)
  let target = random_vec r 6 in
  let score id =
    let v, _ = vecs.(id) in
    let acc = ref 0.0 in
    Array.iteri (fun i x -> acc := !acc +. ((x -. target.(i)) ** 2.0)) v;
    !acc
  in
  let found, evals = Anns.Hnsw.search_by h ~score_batch:(Array.map score) ~k:5 ~ef:50 () in
  Alcotest.(check bool) "found 5" true (List.length found = 5);
  Alcotest.(check bool) "did not scan everything" true (evals < 400);
  (* best found should be near the true best *)
  let best_found = List.fold_left (fun acc (d, _) -> Float.min acc d) infinity found in
  let true_best =
    List.fold_left Float.min infinity (List.init 400 score)
  in
  Alcotest.(check bool)
    (Printf.sprintf "near-optimal (found %.4f vs true %.4f)" best_found true_best)
    true
    (best_found <= true_best *. 3.0 +. 0.05)

let test_hnsw_incremental_size () =
  let r = rng () in
  let h = Anns.Hnsw.create ~dim:3 r in
  Alcotest.(check int) "empty" 0 (Anns.Hnsw.size h);
  Anns.Hnsw.insert h [| 0.0; 0.0; 0.0 |] "a";
  Anns.Hnsw.insert h [| 1.0; 0.0; 0.0 |] "b";
  Alcotest.(check int) "two" 2 (Anns.Hnsw.size h);
  match Anns.Hnsw.search h ~query:[| 0.9; 0.0; 0.0 |] ~k:1 () with
  | [ (_, id) ] -> Alcotest.(check string) "nearest" "b" (Anns.Hnsw.get_payload h id)
  | _ -> Alcotest.fail "expected one"

let test_hnsw_dimension_check () =
  let r = rng () in
  let h = Anns.Hnsw.create ~dim:3 r in
  Alcotest.check_raises "dim mismatch" (Invalid_argument "Hnsw.insert: dimension mismatch")
    (fun () -> Anns.Hnsw.insert h [| 1.0 |] 0)

let qcheck_search_returns_sorted =
  QCheck.Test.make ~name:"search results sorted by distance (prop)" ~count:20
    QCheck.small_nat
    (fun seed ->
      let r = Rng.create (seed + 13) in
      let h, _ = build r ~n:100 ~dim:4 in
      let q = random_vec r 4 in
      let res = Anns.Hnsw.search h ~query:q ~k:10 () in
      let dists = List.map fst res in
      dists = List.sort compare dists)

let () =
  Alcotest.run "anns"
    [
      ( "hnsw",
        [
          Alcotest.test_case "heap" `Quick test_heap_orders;
          Alcotest.test_case "exact small" `Quick test_hnsw_exact_small;
          Alcotest.test_case "recall" `Quick test_hnsw_recall;
          Alcotest.test_case "generic search" `Quick test_hnsw_search_by_generic;
          Alcotest.test_case "incremental" `Quick test_hnsw_incremental_size;
          Alcotest.test_case "dimension check" `Quick test_hnsw_dimension_check;
          QCheck_alcotest.to_alcotest qcheck_search_returns_sorted;
        ] );
    ]
