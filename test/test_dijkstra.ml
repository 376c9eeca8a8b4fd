open Wnet_graph

(* Hand-checkable fixture: diamond 0-1-3, 0-2-3 with c1 = 1, c2 = 3.
   Node-weighted distances from 0: d(1) = d(2) = 0 (neighbours), d(3) = 1
   (via relay 1). *)
let diamond = Wnet_core.Examples.diamond

let test_diamond_distances () =
  let t = Dijkstra.node_weighted diamond ~source:0 in
  Test_util.check_float "source" 0.0 (Dijkstra.dist t 0);
  Test_util.check_float "neighbour 1" 0.0 (Dijkstra.dist t 1);
  Test_util.check_float "neighbour 2" 0.0 (Dijkstra.dist t 2);
  Test_util.check_float "two hops" 1.0 (Dijkstra.dist t 3)

let test_diamond_path () =
  let t = Dijkstra.node_weighted diamond ~source:0 in
  match Dijkstra.path_to t 3 with
  | Some p -> Alcotest.(check (array int)) "via cheap relay" [| 0; 1; 3 |] p
  | None -> Alcotest.fail "reachable"

let test_endpoint_costs_excluded () =
  (* Expensive endpoints must not affect path costs. *)
  let g =
    Graph.create ~costs:[| 1000.0; 2.0; 1000.0 |] ~edges:[ (0, 1); (1, 2) ]
  in
  let t = Dijkstra.node_weighted g ~source:0 in
  Test_util.check_float "relay only" 2.0 (Dijkstra.dist t 2)

let test_unreachable () =
  let g = Graph.create ~costs:[| 1.0; 1.0; 1.0 |] ~edges:[ (0, 1) ] in
  let t = Dijkstra.node_weighted g ~source:0 in
  Test_util.check_float "infinite" infinity (Dijkstra.dist t 2);
  Alcotest.(check bool) "reachable flag" false (Dijkstra.reachable t 2);
  Alcotest.(check (option (array int))) "no path" None (Dijkstra.path_to t 2)

let test_forbidden () =
  let t = Dijkstra.node_weighted ~forbidden:(fun v -> v = 1) diamond ~source:0 in
  Test_util.check_float "detour via 2" 3.0 (Dijkstra.dist t 3);
  Alcotest.check_raises "forbidden source"
    (Invalid_argument "Dijkstra: source is forbidden") (fun () ->
      ignore (Dijkstra.node_weighted ~forbidden:(fun v -> v = 0) diamond ~source:0))

let test_symmetry () =
  (* Node-weighted distance between two nodes is symmetric. *)
  let r = Test_util.rng 21 in
  for _ = 1 to 30 do
    let g = Test_util.random_ring_graph r in
    let n = Graph.n g in
    let a = Wnet_prng.Rng.int r n and b = Wnet_prng.Rng.int r n in
    let ta = Dijkstra.node_weighted g ~source:a in
    let tb = Dijkstra.node_weighted g ~source:b in
    Test_util.check_float "d(a,b) = d(b,a)" (Dijkstra.dist ta b) (Dijkstra.dist tb a)
  done

let test_tree_consistency () =
  (* Every node's distance equals its parent's distance plus the parent's
     leaving cost; tree paths are valid graph paths. *)
  let r = Test_util.rng 22 in
  for _ = 1 to 30 do
    let g = Test_util.random_sparse_graph r in
    let src = Wnet_prng.Rng.int r (Graph.n g) in
    let t = Dijkstra.node_weighted g ~source:src in
    Array.iteri
      (fun v p ->
        if p >= 0 && v <> src then begin
          let leave = if p = src then 0.0 else Graph.cost g p in
          Test_util.check_float "dist = parent + leave"
            (Dijkstra.dist t p +. leave)
            (Dijkstra.dist t v);
          Alcotest.(check bool) "parent adjacent" true (Graph.mem_edge g p v)
        end)
      t.Dijkstra.parent;
    Array.iteri
      (fun v _ ->
        if Dijkstra.reachable t v then
          match Dijkstra.path_to t v with
          | None -> Alcotest.fail "path missing"
          | Some p ->
            Alcotest.(check bool) "valid path" true (Path.is_valid g p);
            Test_util.check_float "path cost = dist" (Dijkstra.dist t v)
              (Path.relay_cost g p))
      t.Dijkstra.parent
  done

let test_optimality_vs_bruteforce () =
  (* Exhaustive path enumeration on small graphs. *)
  let r = Test_util.rng 23 in
  for _ = 1 to 15 do
    let g = Test_util.random_ring_graph ~min_n:4 ~max_n:7 r in
    let n = Graph.n g in
    let src = 0 in
    let best = Array.make n infinity in
    let rec explore v visited cost =
      if cost < best.(v) then best.(v) <- cost;
      Array.iter
        (fun w ->
          if not (List.mem w visited) then begin
            let leave = if v = src then 0.0 else Graph.cost g v in
            explore w (w :: visited) (cost +. leave)
          end)
        (Graph.neighbors g v)
    in
    explore src [ src ] 0.0;
    let t = Dijkstra.node_weighted g ~source:src in
    for v = 0 to n - 1 do
      Test_util.check_float "matches brute force" best.(v) (Dijkstra.dist t v)
    done
  done

let test_link_weighted_basic () =
  let g =
    Digraph.create ~n:4
      ~links:[ (0, 1, 1.0); (1, 2, 1.0); (0, 2, 5.0); (2, 3, 1.0) ]
  in
  let t = Dijkstra.link_weighted g 0 in
  Test_util.check_float "two-hop beats direct" 2.0 (Dijkstra.dist t 2);
  Test_util.check_float "chain" 3.0 (Dijkstra.dist t 3);
  match Dijkstra.path_to t 3 with
  | Some p -> Alcotest.(check (array int)) "path" [| 0; 1; 2; 3 |] p
  | None -> Alcotest.fail "reachable"

let test_link_weighted_directionality () =
  let g = Digraph.create ~n:2 ~links:[ (0, 1, 1.0) ] in
  let t = Dijkstra.link_weighted g 1 in
  Test_util.check_float "no reverse link" infinity (Dijkstra.dist t 0)

let test_link_weighted_reverse_to_root () =
  let r = Test_util.rng 24 in
  for _ = 1 to 20 do
    let inst = Wnet_topology.Random_range.paper_instance r ~n:40 ~kappa:2.0 in
    let g = inst.Wnet_topology.Random_range.graph in
    let rev = Digraph.reverse g in
    let to_root = Dijkstra.link_weighted rev 0 in
    (* spot-check: distance to root via reverse graph equals a direct
       forward computation from each node *)
    let v = Wnet_prng.Rng.int r 40 in
    if v <> 0 then begin
      let fwd = Dijkstra.link_weighted g v in
      Test_util.check_float "reverse trick" (Dijkstra.dist fwd 0)
        (Dijkstra.dist to_root v)
    end
  done

let test_children () =
  let t = Dijkstra.node_weighted diamond ~source:0 in
  let kids = Dijkstra.children t in
  let total = Array.fold_left (fun acc a -> acc + Array.length a) 0 kids in
  Alcotest.(check int) "n-1 tree edges" 3 total

let suite =
  [
    Alcotest.test_case "diamond distances" `Quick test_diamond_distances;
    Alcotest.test_case "diamond path" `Quick test_diamond_path;
    Alcotest.test_case "endpoint costs excluded" `Quick test_endpoint_costs_excluded;
    Alcotest.test_case "unreachable nodes" `Quick test_unreachable;
    Alcotest.test_case "forbidden nodes" `Quick test_forbidden;
    Alcotest.test_case "node-weighted symmetry" `Quick test_symmetry;
    Alcotest.test_case "tree consistency" `Quick test_tree_consistency;
    Alcotest.test_case "optimality vs brute force" `Quick test_optimality_vs_bruteforce;
    Alcotest.test_case "link-weighted basics" `Quick test_link_weighted_basic;
    Alcotest.test_case "link-weighted directionality" `Quick test_link_weighted_directionality;
    Alcotest.test_case "reverse graph to-root trick" `Quick test_link_weighted_reverse_to_root;
    Alcotest.test_case "children lists" `Quick test_children;
  ]
