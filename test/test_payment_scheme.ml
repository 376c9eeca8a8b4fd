open Wnet_core
open Wnet_graph

(* Theta fixture: terminals 0, 1; arm relays 2&3 (costs 5, 5, adjacent),
   arm relay 4 (cost 8), arm relay 5 (cost 30). *)
let theta () =
  Wnet_topology.Fixtures.theta ~spine_costs:[| 1.0; 1.0 |]
    ~arm_costs:[| [| 5.0; 5.0 |]; [| 8.0 |]; [| 30.0 |] |]

let test_vcg_equals_unicast () =
  let r = Test_util.rng 50 in
  for _ = 1 to 20 do
    let g = Test_util.random_ring_graph ~max_n:20 r in
    let n = Graph.n g in
    let src = Wnet_prng.Rng.int r n in
    let dst = (src + 1 + Wnet_prng.Rng.int r (n - 1)) mod n in
    match (Payment_scheme.run Payment_scheme.Vcg g ~src ~dst, Unicast.run g ~src ~dst) with
    | Some a, Some b ->
      Array.iteri
        (fun v p -> Test_util.check_float "same payments" p a.Payment_scheme.payments.(v))
        (Test_util.dense_payments ~n b.Unicast.path b.Unicast.relay_pay)
    | None, None -> ()
    | _ -> Alcotest.fail "feasibility mismatch"
  done

let test_neighbourhood_payments_on_theta () =
  let g = theta () in
  match Payment_scheme.run Payment_scheme.Neighbourhood g ~src:0 ~dst:1 with
  | None -> Alcotest.fail "connected"
  | Some r ->
    (* LCP = 0-4-1 (cost 8, node 4 is the fixture's arm-2 relay). *)
    Alcotest.(check (array int)) "lcp" [| 0; 4; 1 |] r.Payment_scheme.path;
    (* N(4) minus endpoints = {4}: pivot = arm1 = 10; payment 10-8+8. *)
    Test_util.check_float "on-path payment" 10.0 (Payment_scheme.payment_to r 4);
    (* Node 2 (off path): removing N(2) = {2,3} leaves pivot = 8 = LCP:
       payment 0. *)
    Test_util.check_float "off-path, arm dead" 0.0 (Payment_scheme.payment_to r 2)

let test_neighbourhood_pays_at_least_vcg () =
  (* The neighbourhood pivot removes a superset of nodes, so p̃ >= p for
     on-path relays: the price of collusion resistance. *)
  let r = Test_util.rng 51 in
  for _ = 1 to 20 do
    let g = Test_util.random_ring_graph ~max_n:20 r in
    let n = Graph.n g in
    let src = Wnet_prng.Rng.int r n in
    let dst = (src + 1 + Wnet_prng.Rng.int r (n - 1)) mod n in
    match
      ( Payment_scheme.run Payment_scheme.Vcg g ~src ~dst,
        Payment_scheme.run Payment_scheme.Neighbourhood g ~src ~dst )
    with
    | Some a, Some b ->
      Array.iter
        (fun k ->
          Alcotest.(check bool) "p-tilde >= p" true
            (Payment_scheme.payment_to b k >= Payment_scheme.payment_to a k -. 1e-9))
        (Path.relays a.Payment_scheme.path)
    | None, None -> ()
    | _ -> Alcotest.fail "feasibility mismatch"
  done

let test_off_path_positive_payment () =
  (* The paper notes p̃ can pay a node that is NOT on the LCP when one of
     its neighbours is.  Build it explicitly: the off-path node 5 is
     adjacent to on-path relay 2. *)
  let g =
    Graph.create
      ~costs:[| 1.0; 1.0; 2.0; 10.0; 50.0; 3.0 |]
      ~edges:[ (0, 2); (2, 1); (0, 3); (3, 1); (0, 4); (4, 1); (5, 2); (5, 0) ]
  in
  match Payment_scheme.run Payment_scheme.Neighbourhood g ~src:0 ~dst:1 with
  | None -> Alcotest.fail "connected"
  | Some r ->
    Alcotest.(check (array int)) "lcp via 2" [| 0; 2; 1 |] r.Payment_scheme.path;
    (* Removing N(5) = {5, 2} kills the LCP: pivot = 10 via node 3;
       payment to 5 = 10 - 2 + 0 = 8 > 0 although 5 is off-path. *)
    Test_util.check_float "off-path but paid" 8.0 (Payment_scheme.payment_to r 5)

let test_inflation_collusion_resisted () =
  let r = Test_util.rng 52 in
  let checked = ref 0 in
  for _ = 1 to 20 do
    match
      Wnet_topology.Gnp.biconnected_graph r ~n:15 ~p:0.5 ~cost_lo:1.0
        ~cost_hi:10.0 ~max_tries:50
    with
    | None -> ()
    | Some g ->
      let src = 2 and dst = 0 in
      if Connectivity.neighbourhood_resilient g ~src ~dst then begin
        incr checked;
        let m = Payment_scheme.mechanism Payment_scheme.Neighbourhood g ~src ~dst in
        let pairs = ref [] in
        Graph.iter_edges
          (fun u v ->
            if u <> src && v <> src && u <> dst && v <> dst then
              pairs := (u, v) :: !pairs)
          g;
        let v =
          Wnet_mech.Properties.pair_inflation_violations (Wnet_prng.Rng.split r) m
            ~truth:(Graph.costs g) ~pairs:!pairs ~trials_per_pair:3
        in
        Alcotest.(check int) "no inflation gain" 0 (List.length v)
      end
  done;
  Alcotest.(check bool) "exercised at least once" true (!checked > 0)

let test_capture_collusion_residual () =
  (* The documented Theorem 8 gap: joint under-bidding by two adjacent
     relays captures the route and gains — consistent with Theorem 7. *)
  let g = theta () in
  let truth = Graph.costs g in
  let m = Payment_scheme.mechanism Payment_scheme.Neighbourhood g ~src:0 ~dst:1 in
  let lie = Wnet_mech.Profile.deviate_many truth [ (2, 0.0); (3, 0.0) ] in
  let honest = Wnet_mech.Mechanism.utilities m ~truth ~declared:truth |> Option.get in
  let dev = Wnet_mech.Mechanism.utilities m ~truth ~declared:lie |> Option.get in
  Alcotest.(check bool) "capture gains (Theorem 8 caveat)" true
    (dev.(2) +. dev.(3) > honest.(2) +. honest.(3) +. 1e-9)

let test_single_agent_truthful () =
  (* p̃ is still strategyproof agent-by-agent. *)
  let r = Test_util.rng 53 in
  for _ = 1 to 8 do
    let g = Test_util.random_ring_graph ~max_n:12 r in
    let n = Graph.n g in
    let src = Wnet_prng.Rng.int r n in
    let dst = (src + 1 + Wnet_prng.Rng.int r (n - 1)) mod n in
    let m = Payment_scheme.mechanism Payment_scheme.Neighbourhood g ~src ~dst in
    let v =
      Wnet_mech.Properties.random_ic_violations (Wnet_prng.Rng.split r) m
        ~truth:(Graph.costs g) ~trials:40 ~lie_bound:30.0
    in
    Alcotest.(check int) "unilateral IC" 0 (List.length v)
  done

let test_collusion_sets_generalization () =
  let g = theta () in
  (* Q(k) = everyone within the same arm: for node 2, {3}; for 3, {2}. *)
  let q k = match k with 2 -> [ 3 ] | 3 -> [ 2 ] | _ -> [] in
  match Payment_scheme.run (Payment_scheme.Collusion_sets q) g ~src:0 ~dst:1 with
  | None -> Alcotest.fail "connected"
  | Some r ->
    (* Same output as Vcg for node 4 since Q(4) = {4}. *)
    Test_util.check_float "singleton set = VCG" 10.0 (Payment_scheme.payment_to r 4)

let test_removal_set_excludes_endpoints () =
  let g = theta () in
  let set = Payment_scheme.removal_set Payment_scheme.Neighbourhood g ~src:0 ~dst:1 2 in
  Alcotest.(check bool) "no endpoints" true
    (not (List.mem 0 set) && not (List.mem 1 set));
  Alcotest.(check bool) "self included" true (List.mem 2 set);
  Alcotest.(check bool) "neighbour included" true (List.mem 3 set)

let test_monopoly_set_infinite () =
  (* Diamond with a chord between the two relays: pricing relay 1 removes
     its neighbour 3 too, disconnecting the endpoints. *)
  let g =
    Graph.create ~costs:[| 1.0; 1.0; 1.0; 2.0 |]
      ~edges:[ (0, 1); (1, 2); (0, 3); (3, 2); (1, 3) ]
  in
  match Payment_scheme.run Payment_scheme.Neighbourhood g ~src:0 ~dst:2 with
  | None -> Alcotest.fail "connected"
  | Some r ->
    Alcotest.(check (array int)) "lcp via 1" [| 0; 1; 2 |] r.Payment_scheme.path;
    Test_util.check_float "infinite payment" infinity (Payment_scheme.payment_to r 1)

let suite =
  [
    Alcotest.test_case "Vcg scheme = Unicast" `Quick test_vcg_equals_unicast;
    Alcotest.test_case "neighbourhood payments on theta" `Quick test_neighbourhood_payments_on_theta;
    Alcotest.test_case "p-tilde dominates p" `Quick test_neighbourhood_pays_at_least_vcg;
    Alcotest.test_case "off-path node can be paid" `Quick test_off_path_positive_payment;
    Alcotest.test_case "inflation collusion resisted" `Quick test_inflation_collusion_resisted;
    Alcotest.test_case "capture collusion residual (documented)" `Quick test_capture_collusion_residual;
    Alcotest.test_case "single-agent truthfulness" `Quick test_single_agent_truthful;
    Alcotest.test_case "generic collusion sets" `Quick test_collusion_sets_generalization;
    Alcotest.test_case "removal set excludes endpoints" `Quick test_removal_set_excludes_endpoints;
    Alcotest.test_case "neighbourhood monopoly infinite" `Quick test_monopoly_set_infinite;
  ]
