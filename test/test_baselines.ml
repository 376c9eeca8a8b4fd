open Wnet_baselines
open Wnet_graph

let test_nuglet_participation () =
  (* Costs 0.5 / 2.0: at price 1 only the cheap relay participates. *)
  let g =
    Graph.create ~costs:[| 1.0; 0.5; 2.0; 1.0 |]
      ~edges:[ (0, 1); (1, 3); (0, 2); (2, 3) ]
  in
  let o = Nuglet.run g ~price:1.0 ~src:3 ~dst:0 in
  Alcotest.(check bool) "cheap relay in" true o.Nuglet.participants.(1);
  Alcotest.(check bool) "pricey relay out" false o.Nuglet.participants.(2);
  (match o.Nuglet.path with
  | Some p -> Alcotest.(check (array int)) "routes via cheap" [| 3; 1; 0 |] p
  | None -> Alcotest.fail "deliverable");
  Test_util.check_float "charge = price per relay" 1.0 o.Nuglet.charge;
  Test_util.check_float "social cost" 0.5 o.Nuglet.social_cost

let test_nuglet_undeliverable () =
  let g = Wnet_topology.Fixtures.line ~costs:[| 1.0; 5.0; 1.0 |] in
  let o = Nuglet.run g ~price:1.0 ~src:0 ~dst:2 in
  Alcotest.(check bool) "no path" true (o.Nuglet.path = None);
  Test_util.check_float "infinite social cost" infinity o.Nuglet.social_cost

let test_nuglet_delivery_rate () =
  (* Star of expensive relays around the AP: only direct neighbours get
     through at price 1. *)
  let g =
    Graph.create ~costs:[| 1.0; 9.0; 9.0; 1.0 |]
      ~edges:[ (0, 1); (0, 2); (1, 3); (2, 3) ]
  in
  Test_util.check_float "2 of 3 reachable" (2.0 /. 3.0)
    (Nuglet.delivery_rate g ~price:1.0 ~root:0);
  Test_util.check_float "all deliverable at high price" 1.0
    (Nuglet.delivery_rate g ~price:10.0 ~root:0)

let test_nuglet_economy_conservation () =
  let r = Test_util.rng 110 in
  let g = Wnet_topology.Fixtures.ring ~costs:(Array.make 8 1.0) in
  let e = Nuglet.simulate_sessions r g ~root:0 ~sessions:200 ~initial:5.0 in
  (* nuglets are only transferred, never created or destroyed *)
  let total = Array.fold_left ( +. ) 0.0 e.Nuglet.counters in
  Test_util.check_float "conservation" (8.0 *. 5.0) total;
  Alcotest.(check int) "all sessions accounted" 200
    (e.Nuglet.delivered + e.Nuglet.blocked + e.Nuglet.disconnected)

let test_nuglet_blocking_without_funds () =
  let r = Test_util.rng 111 in
  (* A leaf that must pay 1 relay per session but starts broke and never
     relays for anyone (line topology, leaf end): blocked forever. *)
  let g = Wnet_topology.Fixtures.line ~costs:(Array.make 3 1.0) in
  let e = Nuglet.simulate_sessions r g ~root:0 ~sessions:100 ~initial:0.0 in
  Alcotest.(check bool) "blocked sessions appear" true (e.Nuglet.blocked > 0)

let test_watchdog_labels_selfish () =
  let r = Test_util.rng 112 in
  let g = Wnet_topology.Fixtures.ring ~costs:(Array.make 8 1.0) in
  let kinds v = if v = 3 then Watchdog.Selfish else Watchdog.Cooperative 1000 in
  let rep = Watchdog.run r g ~kinds ~root:0 ~sessions:300 in
  Alcotest.(check bool) "selfish labelled" true rep.Watchdog.labelled.(3);
  Alcotest.(check int) "no wrongful labels" 0 rep.Watchdog.wrongful;
  Alcotest.(check int) "one rightful label" 1 rep.Watchdog.rightful

let test_watchdog_mislabels_exhausted () =
  let r = Test_util.rng 113 in
  let g = Wnet_topology.Fixtures.ring ~costs:(Array.make 8 1.0) in
  (* cooperative but battery-limited nodes end up labelled too: the
     paper's critique of [4] *)
  let kinds _ = Watchdog.Cooperative 3 in
  let rep = Watchdog.run r g ~kinds ~root:0 ~sessions:400 in
  Alcotest.(check bool) "wrongful labels appear" true (rep.Watchdog.wrongful > 0);
  Test_util.check_float "all labels wrongful" 1.0 (Watchdog.wrongful_fraction rep)

let test_watchdog_routes_around_labelled () =
  let r = Test_util.rng 114 in
  let g = Wnet_topology.Fixtures.ring ~costs:(Array.make 6 1.0) in
  let kinds v = if v = 1 then Watchdog.Selfish else Watchdog.Cooperative 10_000 in
  let rep = Watchdog.run r g ~kinds ~root:0 ~sessions:500 in
  (* after 1 is labelled, everything routes the other way: deliveries
     dominate failures *)
  Alcotest.(check bool) "mostly delivered" true
    (rep.Watchdog.delivered > 10 * rep.Watchdog.failed)

let test_naive_payment_matches_fast () =
  let r = Test_util.rng 115 in
  for _ = 1 to 10 do
    let g = Test_util.random_ring_graph ~max_n:20 r in
    let n = Graph.n g in
    let src = Wnet_prng.Rng.int r n in
    let dst = (src + 1 + Wnet_prng.Rng.int r (n - 1)) mod n in
    match
      (Naive_payment.run g ~src ~dst, Wnet_core.Unicast.run ~algo:Wnet_core.Unicast.Fast g ~src ~dst)
    with
    | Some a, Some b ->
      Alcotest.(check bool) "same payments" true
        (Array.for_all2 Test_util.approx
           (Test_util.dense_payments ~n a.Wnet_core.Unicast.path a.Wnet_core.Unicast.relay_pay)
           (Test_util.dense_payments ~n b.Wnet_core.Unicast.path b.Wnet_core.Unicast.relay_pay))
    | None, None -> ()
    | _ -> Alcotest.fail "mismatch"
  done

let test_naive_operation_count () =
  let g = Wnet_core.Examples.fig2.Wnet_core.Examples.graph in
  Alcotest.(check int) "1 + 3 relays" 4 (Naive_payment.operation_count g ~src:1 ~dst:0)

let test_vcg_beats_nuglet_on_efficiency () =
  (* With heterogeneous costs, the fixed-price scheme either blocks
     delivery or routes over a socially costlier path than the LCP. *)
  let g =
    Graph.create ~costs:[| 1.0; 0.4; 0.1; 0.1; 1.0 |]
      ~edges:[ (0, 1); (1, 4); (0, 2); (2, 3); (3, 4) ]
  in
  (* LCP(4 -> 0) = 4-3-2-0 with cost 0.2 < 0.4 via node 1. *)
  let vcg = Wnet_core.Unicast.run g ~src:4 ~dst:0 |> Option.get in
  Test_util.check_float "VCG routes socially cheapest" 0.2 vcg.Wnet_core.Unicast.lcp_cost;
  let nug = Nuglet.run g ~price:1.0 ~src:4 ~dst:0 in
  Alcotest.(check bool) "nuglet prefers fewer hops at higher social cost" true
    (nug.Nuglet.social_cost > vcg.Wnet_core.Unicast.lcp_cost)

let suite =
  [
    Alcotest.test_case "nuglet: rational participation" `Quick test_nuglet_participation;
    Alcotest.test_case "nuglet: undeliverable" `Quick test_nuglet_undeliverable;
    Alcotest.test_case "nuglet: delivery rate" `Quick test_nuglet_delivery_rate;
    Alcotest.test_case "nuglet: counter conservation" `Quick test_nuglet_economy_conservation;
    Alcotest.test_case "nuglet: blocking when broke" `Quick test_nuglet_blocking_without_funds;
    Alcotest.test_case "watchdog: labels selfish" `Quick test_watchdog_labels_selfish;
    Alcotest.test_case "watchdog: mislabels exhausted" `Quick test_watchdog_mislabels_exhausted;
    Alcotest.test_case "watchdog: routes around labels" `Quick test_watchdog_routes_around_labelled;
    Alcotest.test_case "naive payment = fast payment" `Quick test_naive_payment_matches_fast;
    Alcotest.test_case "naive operation count" `Quick test_naive_operation_count;
    Alcotest.test_case "VCG vs nuglet efficiency" `Quick test_vcg_beats_nuglet_on_efficiency;
  ]
