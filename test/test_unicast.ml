open Wnet_core
open Wnet_graph

let diamond = Examples.diamond

let test_diamond_payment () =
  (* LCP(3 -> 0) = 3-1-0; payment to relay 1 is c_1 + (c_2 - c_1) = 3. *)
  match Unicast.run diamond ~src:3 ~dst:0 with
  | None -> Alcotest.fail "connected"
  | Some r ->
    Alcotest.(check (array int)) "path" [| 3; 1; 0 |] r.Unicast.path;
    Test_util.check_float "lcp cost" 1.0 r.Unicast.lcp_cost;
    Test_util.check_float "payment to 1" 3.0 (Unicast.payment_to r 1);
    Test_util.check_float "payment to 2" 0.0 (Unicast.payment_to r 2);
    Test_util.check_float "total" 3.0 (Unicast.total_payment r);
    Test_util.check_float "overpayment" 2.0 (Unicast.overpayment r)

let test_relays_and_utility () =
  match Unicast.run diamond ~src:3 ~dst:0 with
  | None -> Alcotest.fail "connected"
  | Some r ->
    Alcotest.(check (list int)) "relays" [ 1 ] (Unicast.relays r);
    let truth = Graph.costs diamond in
    Test_util.check_float "relay utility = pivot gap" 2.0
      (Unicast.utility r ~truth 1);
    Test_util.check_float "bystander utility" 0.0 (Unicast.utility r ~truth 2)

let test_payment_at_least_cost () =
  (* IR: every truthful relay is paid at least its declared cost. *)
  let r = Test_util.rng 40 in
  for _ = 1 to 40 do
    let g = Test_util.random_ring_graph r in
    let n = Graph.n g in
    let src = Wnet_prng.Rng.int r n in
    let dst = (src + 1 + Wnet_prng.Rng.int r (n - 1)) mod n in
    match Unicast.run g ~src ~dst with
    | None -> ()
    | Some res ->
      List.iter
        (fun k ->
          Alcotest.(check bool) "p_k >= c_k" true
            (Unicast.payment_to res k >= Graph.cost g k -. 1e-9))
        (Unicast.relays res)
  done

let test_fast_naive_same_payments () =
  let r = Test_util.rng 41 in
  for _ = 1 to 30 do
    let g = Test_util.random_ring_graph r in
    let n = Graph.n g in
    let src = Wnet_prng.Rng.int r n in
    let dst = (src + 1 + Wnet_prng.Rng.int r (n - 1)) mod n in
    match
      ( Unicast.run ~algo:Unicast.Fast g ~src ~dst,
        Unicast.run ~algo:Unicast.Naive g ~src ~dst )
    with
    | Some a, Some b ->
      Alcotest.(check bool) "same payments" true
        (Array.for_all2 (fun x y -> Test_util.approx x y)
           (Test_util.dense_payments ~n a.Unicast.path a.Unicast.relay_pay)
           (Test_util.dense_payments ~n b.Unicast.path b.Unicast.relay_pay))
    | None, None -> ()
    | _ -> Alcotest.fail "reachability mismatch"
  done

let test_matches_generic_clarke () =
  (* The specialized payment computation must coincide with the generic
     Clarke rule from the mechanism framework. *)
  let r = Test_util.rng 42 in
  for _ = 1 to 20 do
    let g = Test_util.random_ring_graph ~max_n:15 r in
    let n = Graph.n g in
    let src = Wnet_prng.Rng.int r n in
    let dst = (src + 1 + Wnet_prng.Rng.int r (n - 1)) mod n in
    let problem = Unicast.vcg_problem g ~src ~dst in
    match
      (Unicast.run g ~src ~dst, Wnet_mech.Vcg.clarke_payments problem (Graph.costs g))
    with
    | Some a, Some (_, clarke) ->
      Array.iteri
        (fun v p -> Test_util.check_float "clarke agreement" p (Unicast.payment_to a v))
        clarke
    | None, None -> ()
    | _ -> Alcotest.fail "feasibility mismatch"
  done

let test_strategyproofness_random () =
  let r = Test_util.rng 43 in
  for _ = 1 to 10 do
    let g = Test_util.random_ring_graph ~max_n:15 r in
    let n = Graph.n g in
    let src = Wnet_prng.Rng.int r n in
    let dst = (src + 1 + Wnet_prng.Rng.int r (n - 1)) mod n in
    let m = Unicast.mechanism g ~src ~dst in
    let truth = Graph.costs g in
    let v =
      Wnet_mech.Properties.random_ic_violations (Wnet_prng.Rng.split r) m ~truth
        ~trials:60 ~lie_bound:30.0
    in
    Alcotest.(check int) "no unilateral gain" 0 (List.length v)
  done

let test_individual_rationality_random () =
  let r = Test_util.rng 44 in
  for _ = 1 to 10 do
    let g = Test_util.random_ring_graph ~max_n:15 r in
    let n = Graph.n g in
    let src = Wnet_prng.Rng.int r n in
    let dst = (src + 1 + Wnet_prng.Rng.int r (n - 1)) mod n in
    let m = Unicast.mechanism g ~src ~dst in
    Alcotest.(check (list (pair int (float 0.0)))) "IR" []
      (Wnet_mech.Properties.ir_violations m ~truth:(Graph.costs g))
  done

let test_monopoly_payment_infinite () =
  let g = Wnet_topology.Fixtures.line ~costs:[| 1.0; 2.0; 3.0 |] in
  match Unicast.run g ~src:0 ~dst:2 with
  | None -> Alcotest.fail "connected"
  | Some r -> Test_util.check_float "cut node" infinity (Unicast.payment_to r 1)

let test_all_to_root_matches_individual () =
  let r = Test_util.rng 45 in
  for _ = 1 to 10 do
    let g = Test_util.random_ring_graph ~max_n:20 r in
    let batch = Unicast.all_to_root g ~root:0 in
    Alcotest.(check bool) "root entry none" true (batch.(0) = None);
    Array.iteri
      (fun src entry ->
        if src <> 0 then
          match (entry, Unicast.run g ~src ~dst:0) with
          | None, None -> ()
          | Some a, Some b ->
            Test_util.check_float "same lcp cost" b.Unicast.lcp_cost a.Unicast.lcp_cost;
            Test_util.check_float "same total payment" (Unicast.total_payment b)
              (Unicast.total_payment a)
          | _ -> Alcotest.fail "batch/individual mismatch")
      batch
  done

let test_lying_down_can_only_lose () =
  (* A relay under-declaring keeps its payment pivot but may win a path
     it should not carry: utility never rises. *)
  let g = Wnet_topology.Fixtures.theta ~spine_costs:[| 1.0; 1.0 |]
      ~arm_costs:[| [| 4.0 |]; [| 5.0 |]; [| 9.0 |] |]
  in
  (* nodes: 0, 1 terminals; 2 (cost 4), 3 (cost 5), 4 (cost 9) *)
  let truth = Graph.costs g in
  let m = Unicast.mechanism g ~src:0 ~dst:1 in
  let honest = Wnet_mech.Mechanism.utility m ~truth ~declared:truth 3 |> Option.get in
  Test_util.check_float "off-path relay earns 0" 0.0 honest;
  let lie = Wnet_mech.Profile.deviate truth 3 1.0 in
  let dev = Wnet_mech.Mechanism.utility m ~truth ~declared:lie 3 |> Option.get in
  Test_util.check_float "capturing the route at a loss" (-1.0) dev


let test_arbitrary_pair_unicast () =
  (* The mechanism is defined for any pair, not just to the AP
     (Sec. II-B: "not very different to generalize"). *)
  let g = Examples.fig4.Examples.graph in
  match Unicast.run g ~src:8 ~dst:1 with
  | None -> Alcotest.fail "connected"
  | Some r ->
    Alcotest.(check int) "source" 8 r.Unicast.src;
    Alcotest.(check int) "destination" 1 r.Unicast.dst;
    Alcotest.(check bool) "payments cover relays" true
      (List.for_all
         (fun k -> Unicast.payment_to r k >= Graph.cost g k -. 1e-9)
         (Unicast.relays r))

let test_overpayment_equals_premium_sum () =
  let r = Test_util.rng 46 in
  for _ = 1 to 10 do
    let g = Test_util.random_ring_graph ~max_n:15 r in
    let n = Graph.n g in
    let src = Wnet_prng.Rng.int r n in
    let dst = (src + 1 + Wnet_prng.Rng.int r (n - 1)) mod n in
    match Unicast.run g ~src ~dst with
    | None -> ()
    | Some res ->
      let premium_sum =
        List.fold_left
          (fun acc k -> acc +. (Unicast.payment_to res k -. Graph.cost g k))
          0.0 (Unicast.relays res)
      in
      if Float.is_finite premium_sum then
        Test_util.check_float "overpayment = sum of premiums" premium_sum
          (Unicast.overpayment res)
  done

let test_corridor_fast_naive () =
  (* Long thin deployment: many relays per path, the regime Algorithm 1
     is built for. *)
  let r = Test_util.rng 47 in
  let t =
    Wnet_topology.Udg.generate r
      ~region:(Wnet_geom.Region.make ~width:3000.0 ~height:300.0)
      ~n:60 ~range:320.0
  in
  let costs = Wnet_topology.Udg.uniform_node_costs r ~n:60 ~lo:1.0 ~hi:5.0 in
  let g = Wnet_topology.Udg.node_graph t ~costs in
  for src = 1 to 10 do
    match
      ( Unicast.run ~algo:Unicast.Fast g ~src ~dst:0,
        Unicast.run ~algo:Unicast.Naive g ~src ~dst:0 )
    with
    | Some a, Some b ->
      Alcotest.(check bool) "corridor payments agree" true
        (Array.for_all2 Test_util.approx
           (Test_util.dense_payments ~n:60 a.Unicast.path a.Unicast.relay_pay)
           (Test_util.dense_payments ~n:60 b.Unicast.path b.Unicast.relay_pay))
    | None, None -> ()
    | _ -> Alcotest.fail "reachability mismatch"
  done

let suite =
  [
    Alcotest.test_case "diamond payments by hand" `Quick test_diamond_payment;
    Alcotest.test_case "relays and utilities" `Quick test_relays_and_utility;
    Alcotest.test_case "payment >= declared cost" `Quick test_payment_at_least_cost;
    Alcotest.test_case "fast and naive payments agree" `Quick test_fast_naive_same_payments;
    Alcotest.test_case "matches generic Clarke rule" `Quick test_matches_generic_clarke;
    Alcotest.test_case "strategyproof (random lies)" `Quick test_strategyproofness_random;
    Alcotest.test_case "individually rational" `Quick test_individual_rationality_random;
    Alcotest.test_case "monopoly relay priced infinite" `Quick test_monopoly_payment_infinite;
    Alcotest.test_case "all_to_root batch" `Quick test_all_to_root_matches_individual;
    Alcotest.test_case "under-declaring cannot profit" `Quick test_lying_down_can_only_lose;
    Alcotest.test_case "arbitrary-pair unicast" `Quick test_arbitrary_pair_unicast;
    Alcotest.test_case "overpayment = premium sum" `Quick test_overpayment_equals_premium_sum;
    Alcotest.test_case "corridor fast = naive" `Quick test_corridor_fast_naive;
  ]
