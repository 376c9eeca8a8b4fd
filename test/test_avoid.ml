open Wnet_graph

(* The correctness heart of the repository: Algorithm 1 must agree with
   the naive per-relay recomputation everywhere, including disconnection
   (infinity) cases. *)

let agree (a : Avoid.result) (b : Avoid.result) =
  a.Avoid.path = b.Avoid.path
  && Test_util.approx a.Avoid.lcp_cost b.Avoid.lcp_cost
  && Array.for_all2
       (fun x y -> Test_util.approx x y)
       a.Avoid.replacement b.Avoid.replacement

let compare_on g ~src ~dst =
  match
    ( Avoid.replacement_costs_naive g ~src ~dst,
      Avoid.replacement_costs_fast g ~src ~dst )
  with
  | None, None -> true
  | Some a, Some b -> agree a b
  | Some _, None | None, Some _ -> false

let test_ring_by_hand () =
  (* Ring of 5, costs 1..5: LCP(0 -> 2) = 0-1-2 (relay cost 2).  Removing
     relay 1 forces the other way round: relays 5?, no — nodes 4 and 3,
     costs c4 + c3. *)
  let g = Wnet_topology.Fixtures.ring ~costs:[| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  match Avoid.replacement_costs_fast g ~src:0 ~dst:2 with
  | None -> Alcotest.fail "connected"
  | Some r ->
    Alcotest.(check (array int)) "path" [| 0; 1; 2 |] r.Avoid.path;
    Test_util.check_float "lcp cost" 2.0 r.Avoid.lcp_cost;
    Test_util.check_float "replacement around" 9.0 r.Avoid.replacement.(1)

let test_direct_edge_no_relays () =
  let g = Wnet_topology.Fixtures.ring ~costs:[| 1.0; 1.0; 1.0 |] in
  match Avoid.replacement_costs_fast g ~src:0 ~dst:1 with
  | None -> Alcotest.fail "connected"
  | Some r ->
    Alcotest.(check int) "two nodes" 2 (Array.length r.Avoid.path);
    Alcotest.(check bool) "no replacement entries" true
      (Array.for_all Float.is_nan r.Avoid.replacement)

let test_unreachable_gives_none () =
  let g = Graph.create ~costs:[| 1.0; 1.0; 1.0 |] ~edges:[ (0, 1) ] in
  Alcotest.(check bool) "naive none" true
    (Avoid.replacement_costs_naive g ~src:0 ~dst:2 = None);
  Alcotest.(check bool) "fast none" true
    (Avoid.replacement_costs_fast g ~src:0 ~dst:2 = None)

let test_cut_node_infinite () =
  let g = Wnet_topology.Fixtures.line ~costs:[| 1.0; 2.0; 3.0 |] in
  match Avoid.replacement_costs_fast g ~src:0 ~dst:2 with
  | None -> Alcotest.fail "connected"
  | Some r ->
    Test_util.check_float "monopoly relay" infinity r.Avoid.replacement.(1)

let test_avoiding_cost_direct () =
  let g = Wnet_core.Examples.diamond in
  let scratch = Dijkstra.make_scratch (Graph.n g) in
  Test_util.check_float "detour cost" 3.0
    (Avoid.avoiding_cost scratch g ~src:0 ~dst:3 ~avoid:1);
  Alcotest.check_raises "avoid endpoint"
    (Invalid_argument "Avoid.avoiding_cost: cannot avoid an endpoint")
    (fun () -> ignore (Avoid.avoiding_cost scratch g ~src:0 ~dst:3 ~avoid:0));
  let small = Dijkstra.make_scratch 2 in
  Alcotest.check_raises "graph over capacity"
    (Invalid_argument "Dijkstra: graph exceeds scratch capacity")
    (fun () -> ignore (Avoid.avoiding_cost small g ~src:0 ~dst:3 ~avoid:1));
  Alcotest.(check string) "a refused call leaves the ban mask clean" "\000\000"
    (Bytes.to_string (Dijkstra.ban_mask small))

let test_validation () =
  let g = Wnet_core.Examples.diamond in
  Alcotest.check_raises "src = dst" (Invalid_argument "Avoid: src = dst")
    (fun () -> ignore (Avoid.replacement_costs_fast g ~src:1 ~dst:1));
  let zero = Graph.with_cost g 1 0.0 in
  Alcotest.check_raises "zero costs rejected by fast"
    (Invalid_argument
       "Avoid.replacement_costs_fast: requires strictly positive costs")
    (fun () -> ignore (Avoid.replacement_costs_fast zero ~src:0 ~dst:3))

let test_naive_handles_zero_costs () =
  let g = Graph.with_cost Wnet_core.Examples.diamond 1 0.0 in
  match Avoid.replacement_costs_naive g ~src:0 ~dst:3 with
  | None -> Alcotest.fail "connected"
  | Some r -> Test_util.check_float "replacement" 3.0 r.Avoid.replacement.(1)

let test_levels_labelling () =
  let g = Wnet_core.Examples.fig2.Wnet_core.Examples.graph in
  let tree = Dijkstra.node_weighted g ~source:1 in
  match Dijkstra.path_to tree 0 with
  | None -> Alcotest.fail "connected"
  | Some path ->
    let levels = Avoid.levels g ~tree path in
    Array.iteri
      (fun idx v -> Alcotest.(check int) "path node level = index" idx levels.(v))
      path;
    (* off-path nodes 5 and 6 hang off the source (level 0) *)
    Alcotest.(check int) "backup arm level" 0 levels.(5);
    Alcotest.(check int) "second backup level" 0 levels.(6)

let prop_fast_matches_naive_dense =
  Test_util.qcheck_case ~count:150 "fast = naive on ring+chords graphs"
    Test_util.seed_gen (fun seed ->
      let r = Test_util.rng seed in
      let g = Test_util.random_ring_graph r in
      let n = Graph.n g in
      let src = Wnet_prng.Rng.int r n in
      let dst = (src + 1 + Wnet_prng.Rng.int r (n - 1)) mod n in
      compare_on g ~src ~dst)

let prop_fast_matches_naive_sparse =
  Test_util.qcheck_case ~count:150 "fast = naive on sparse graphs (disconnections)"
    Test_util.seed_gen (fun seed ->
      let r = Test_util.rng seed in
      let g = Test_util.random_sparse_graph r in
      let n = Graph.n g in
      let src = Wnet_prng.Rng.int r n in
      let dst = (src + 1 + Wnet_prng.Rng.int r (n - 1)) mod n in
      compare_on g ~src ~dst)

let prop_fast_matches_naive_udg =
  Test_util.qcheck_case ~count:40 "fast = naive on UDG instances"
    Test_util.seed_gen (fun seed ->
      let r = Test_util.rng seed in
      let t =
        Wnet_topology.Udg.generate r
          ~region:(Wnet_geom.Region.square 1000.0)
          ~n:40 ~range:280.0
      in
      let costs = Wnet_topology.Udg.uniform_node_costs r ~n:40 ~lo:0.5 ~hi:8.0 in
      let g = Wnet_topology.Udg.node_graph t ~costs in
      let src = Wnet_prng.Rng.int r 40 in
      let dst = (src + 1 + Wnet_prng.Rng.int r 39) mod 40 in
      (* either both say unreachable or they fully agree *)
      compare_on g ~src ~dst)

let prop_replacement_at_least_lcp =
  Test_util.qcheck_case ~count:100 "replacement cost >= LCP cost"
    Test_util.seed_gen (fun seed ->
      let r = Test_util.rng seed in
      let g = Test_util.random_ring_graph r in
      let n = Graph.n g in
      let src = Wnet_prng.Rng.int r n in
      let dst = (src + 1 + Wnet_prng.Rng.int r (n - 1)) mod n in
      match Avoid.replacement_costs_fast g ~src ~dst with
      | None -> true
      | Some res ->
        Array.for_all
          (fun x -> Float.is_nan x || x >= res.Avoid.lcp_cost -. 1e-9)
          res.Avoid.replacement)

let prop_replacement_is_avoiding_distance =
  Test_util.qcheck_case ~count:60 "replacement(l) = independent avoiding Dijkstra"
    Test_util.seed_gen (fun seed ->
      let r = Test_util.rng seed in
      let g = Test_util.random_ring_graph ~max_n:20 r in
      let n = Graph.n g in
      let scratch = Dijkstra.make_scratch n in
      let src = Wnet_prng.Rng.int r n in
      let dst = (src + 1 + Wnet_prng.Rng.int r (n - 1)) mod n in
      match Avoid.replacement_costs_fast g ~src ~dst with
      | None -> true
      | Some res ->
        let ok = ref true in
        Array.iteri
          (fun l x ->
            if not (Float.is_nan x) then begin
              let d =
                Avoid.avoiding_cost scratch g ~src ~dst ~avoid:res.Avoid.path.(l)
              in
              if not (Test_util.approx x d) then ok := false
            end)
          res.Avoid.replacement;
        !ok)


let test_scale_corridor () =
  (* paper-scale single instance: long corridor, ~25-relay LCP *)
  let r = Test_util.rng 48 in
  let t =
    Wnet_topology.Udg.generate r
      ~region:(Wnet_geom.Region.make ~width:6000.0 ~height:400.0)
      ~n:250 ~range:320.0
  in
  let costs = Wnet_topology.Udg.uniform_node_costs r ~n:250 ~lo:1.0 ~hi:8.0 in
  let g = Wnet_topology.Udg.node_graph t ~costs in
  (* farthest reachable node from 0 *)
  let tree = Dijkstra.node_weighted g ~source:0 in
  let src = ref 0 and d = ref neg_infinity in
  for v = 1 to 249 do
    let x = Dijkstra.dist tree v in
    if Float.is_finite x && x > !d then begin
      src := v;
      d := x
    end
  done;
  if !src <> 0 then
    Alcotest.(check bool) "fast = naive at n = 250" true
      (compare_on g ~src:!src ~dst:0)

let suite =
  [
    Alcotest.test_case "ring by hand" `Quick test_ring_by_hand;
    Alcotest.test_case "direct edge has no relays" `Quick test_direct_edge_no_relays;
    Alcotest.test_case "unreachable destination" `Quick test_unreachable_gives_none;
    Alcotest.test_case "cut relay priced at infinity" `Quick test_cut_node_infinite;
    Alcotest.test_case "one-shot avoiding cost" `Quick test_avoiding_cost_direct;
    Alcotest.test_case "input validation" `Quick test_validation;
    Alcotest.test_case "naive accepts zero costs" `Quick test_naive_handles_zero_costs;
    Alcotest.test_case "level labelling" `Quick test_levels_labelling;
    prop_fast_matches_naive_dense;
    prop_fast_matches_naive_sparse;
    prop_fast_matches_naive_udg;
    prop_replacement_at_least_lcp;
    prop_replacement_is_avoiding_distance;
    Alcotest.test_case "scale: corridor n = 250" `Quick test_scale_corridor;
  ]
