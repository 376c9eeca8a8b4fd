open Wnet_core

(* The reconstructed paper figures must reproduce the published numbers. *)

let test_fig2_honest_payments () =
  let f = Examples.fig2 in
  match Unicast.run f.Examples.graph ~src:f.Examples.source ~dst:f.Examples.access_point with
  | None -> Alcotest.fail "connected"
  | Some r ->
    Alcotest.(check (array int)) "LCP v1-v4-v3-v2-v0" [| 1; 4; 3; 2; 0 |] r.Unicast.path;
    Test_util.check_float "each relay paid 2" 2.0 (Unicast.payment_to r 2);
    Test_util.check_float "each relay paid 2" 2.0 (Unicast.payment_to r 3);
    Test_util.check_float "each relay paid 2" 2.0 (Unicast.payment_to r 4);
    Test_util.check_float "total 6 (paper)" 6.0 (Unicast.total_payment r)

let test_fig2_lying_pays_less () =
  let f = Examples.fig2 in
  match Unicast.run f.Examples.lying_graph ~src:f.Examples.source ~dst:f.Examples.access_point with
  | None -> Alcotest.fail "connected"
  | Some r ->
    Alcotest.(check (array int)) "LCP becomes v1-v5-v0" [| 1; 5; 0 |] r.Unicast.path;
    Test_util.check_float "pays v5 exactly 5 (paper)" 5.0 (Unicast.total_payment r);
    (* the whole point: 5 < 6, lying about neighbourhood helps *)
    Alcotest.(check bool) "lie profitable" true (Unicast.total_payment r < 6.0)

let test_fig4_pinned_values () =
  let f = Examples.fig4 in
  let g = f.Examples.graph in
  let r8 = Unicast.run g ~src:f.Examples.reseller ~dst:f.Examples.access_point |> Option.get in
  let r4 = Unicast.run g ~src:f.Examples.proxy ~dst:f.Examples.access_point |> Option.get in
  Test_util.check_float "p_8 = 20 (paper)" 20.0 (Unicast.total_payment r8);
  Test_util.check_float "p_8^4 = 0 (paper)" 0.0 (Unicast.payment_to r8 4);
  Test_util.check_float "c_4 = 5 (paper)" 5.0 (Wnet_graph.Graph.cost g 4);
  Test_util.check_float "p_4 = 9 (reconstruction)" 9.0 (Unicast.total_payment r4)

let test_fig4_resale_detected () =
  let f = Examples.fig4 in
  let g = f.Examples.graph in
  let batch = Unicast.all_to_root g ~root:f.Examples.access_point in
  let ops =
    Collusion.resale_opportunities g ~root:f.Examples.access_point
      ~payments:(fun v -> batch.(v))
  in
  match List.find_opt (fun (o : Collusion.resale) -> o.Collusion.source = 8) ops with
  | None -> Alcotest.fail "resale opportunity must exist for v8"
  | Some o ->
    Alcotest.(check int) "proxy is v4" 4 o.Collusion.proxy;
    Test_util.check_float "transfer = p_4 + max(p_8^4, c_4)" 14.0 o.Collusion.transfer;
    Test_util.check_float "saving" 6.0 o.Collusion.saving;
    Test_util.check_float "effective cost with split" 17.0
      (Collusion.effective_cost_after_resale o);
    Alcotest.(check bool) "cheaper than honest" true
      (Collusion.effective_cost_after_resale o < 20.0)

(* The test reference against the paper itself, not only against lib/:
   Fig. 2's honest total payment and Fig. 4's p_8, both exact. *)
let test_reference_reproduces_paper () =
  let served r s =
    match r.Payment_ref.results.(s) with
    | Some o -> o
    | None -> Alcotest.failf "the reference does not serve source %d" s
  in
  let f2 = Examples.fig2 in
  let o =
    served
      (Payment_ref.node f2.Examples.graph ~root:f2.Examples.access_point)
      f2.Examples.source
  in
  Alcotest.(check (array int)) "Fig. 2: LCP v1-v4-v3-v2-v0" [| 1; 4; 3; 2; 0 |]
    o.Payment_ref.path;
  Alcotest.(check (float 0.0)) "Fig. 2: honest total payment 6 (paper)" 6.0
    o.Payment_ref.charge;
  let f4 = Examples.fig4 in
  let o =
    served
      (Payment_ref.node f4.Examples.graph ~root:f4.Examples.access_point)
      f4.Examples.reseller
  in
  Alcotest.(check (float 0.0)) "Fig. 4: p_8 = 20 (paper)" 20.0 o.Payment_ref.charge

let test_diamond_fixture () =
  let g = Examples.diamond in
  Alcotest.(check int) "four nodes" 4 (Wnet_graph.Graph.n g);
  Alcotest.(check bool) "biconnected" true (Wnet_graph.Connectivity.is_biconnected g)

let suite =
  [
    Alcotest.test_case "fig2: honest payments (6)" `Quick test_fig2_honest_payments;
    Alcotest.test_case "fig2: hiding an edge pays 5" `Quick test_fig2_lying_pays_less;
    Alcotest.test_case "fig4: pinned values" `Quick test_fig4_pinned_values;
    Alcotest.test_case "fig4: resale detected" `Quick test_fig4_resale_detected;
    Alcotest.test_case "reference pays Fig. 2's 6 and Fig. 4's 20" `Quick
      test_reference_reproduces_paper;
    Alcotest.test_case "diamond fixture" `Quick test_diamond_fixture;
  ]
