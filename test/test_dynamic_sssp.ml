(* Dynamic SSSP repair against the from-scratch oracle: random edit
   bursts (weight changes, insertions, deletions, detach, rejoin, node
   growth) over long-lived graphs, plus pinned unit cases for the two
   fallback triggers. *)

open Wnet_graph
module Rng = Wnet_prng.Rng

let check_tree_matches label g source dyn =
  let fresh = Dijkstra.link_weighted g source in
  let tr = Dynamic_sssp.tree dyn in
  let n = Digraph.n g in
  if Array.length tr.Dijkstra.dist <> n then
    Alcotest.failf "%s: tree dist length %d, graph %d" label
      (Array.length tr.Dijkstra.dist) n;
  for v = 0 to n - 1 do
    if not (Float.equal tr.Dijkstra.dist.(v) fresh.Dijkstra.dist.(v)) then
      Alcotest.failf "%s: dist.(%d) = %.17g, oracle %.17g" label v
        tr.Dijkstra.dist.(v) fresh.Dijkstra.dist.(v);
    if tr.Dijkstra.parent.(v) <> fresh.Dijkstra.parent.(v) then
      Alcotest.failf "%s: parent.(%d) = %d, oracle %d" label v
        tr.Dijkstra.parent.(v) fresh.Dijkstra.parent.(v)
  done

(* A random digraph (with its reverse mirror) whose links may share
   weights when [tied] — tied weights force the fallback path often. *)
let random_digraph rng ~tied =
  let n = 5 + Rng.int rng 20 in
  let links = ref [] in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && Rng.bernoulli rng 0.25 then
        let w =
          if tied then float_of_int (1 + Rng.int rng 3)
          else 0.1 +. Rng.float rng 10.0
        in
        links := (u, v, w) :: !links
    done
  done;
  let g = Digraph.create ~n ~links:!links in
  (g, Digraph.reverse g)

(* One random burst applied to [g] and [mirror] in lockstep, returned as
   net edits on [g] (the shape Dynamic_sssp consumes). *)
let random_burst rng g mirror ~source =
  let byl = Hashtbl.create 8 in
  let touch u v w1 =
    let w0 = Digraph.weight g u v in
    Digraph.set_weight g u v w1;
    Digraph.set_weight mirror v u w1;
    match Hashtbl.find_opt byl (u, v) with
    | Some first -> Hashtbl.replace byl (u, v) { first with Dynamic_sssp.w1 }
    | None -> Hashtbl.add byl (u, v) { Dynamic_sssp.u; v; w0; w1 }
  in
  let ops = 1 + Rng.int rng 4 in
  for _ = 1 to ops do
    let n = Digraph.n g in
    match Rng.int rng 10 with
    | 0 ->
      (* detach a non-source node (leave/crash) *)
      let v = Rng.int rng n in
      if v <> source then begin
        List.iter (fun (y, _) -> touch v y infinity) (Test_util.row g v);
        List.iter (fun (x, _) -> touch x v infinity) (Test_util.row mirror v)
      end
    | 1 ->
      (* grow by one node and wire it up (join) *)
      let v = Digraph.add_node g in
      let v' = Digraph.add_node mirror in
      assert (v = v');
      for _ = 1 to 2 do
        let u = Rng.int rng n in
        if u <> v then begin
          touch u v (0.1 +. Rng.float rng 10.0);
          touch v u (0.1 +. Rng.float rng 10.0)
        end
      done
    | _ ->
      let u = Rng.int rng n and v = Rng.int rng n in
      if u <> v then
        let w1 =
          match Rng.int rng 4 with
          | 0 -> infinity (* delete *)
          | 1 -> float_of_int (1 + Rng.int rng 3) (* often a tie *)
          | _ -> 0.1 +. Rng.float rng 10.0
        in
        touch u v w1
  done;
  Hashtbl.fold
    (fun _ e acc ->
      if Float.equal e.Dynamic_sssp.w0 e.Dynamic_sssp.w1 then acc else e :: acc)
    byl []

let tree_prop ~tied seed =
  let rng = Test_util.rng seed in
  let g, mirror = random_digraph rng ~tied in
  let source = Rng.int rng (Digraph.n g) in
  let dyn = Dynamic_sssp.create ~graph:g ~mirror ~source in
  check_tree_matches "initial" g source dyn;
  for burst = 1 to 8 do
    let edits = random_burst rng g mirror ~source in
    (match Dynamic_sssp.apply dyn edits with
    | Patched _ | Rebuilt _ -> ());
    check_tree_matches (Printf.sprintf "burst %d" burst) g source dyn
  done;
  true

(* Distance-only repair with a forbidden relay, against the oracle, with
   from-scratch recovery after an overflow (tiny budget forces it). *)
let dist_prop seed =
  let rng = Test_util.rng seed in
  let g, mirror = random_digraph rng ~tied:(Rng.bernoulli rng 0.5) in
  let n0 = Digraph.n g in
  let source = Rng.int rng n0 in
  let forbidden = (source + 1 + Rng.int rng (n0 - 1)) mod n0 in
  let scratch = Dynamic_sssp.make_dist_scratch 256 in
  let oracle () = Payment_ref.link_dist ~avoid:forbidden g ~source in
  let dist = ref (oracle ()) in
  let budget = if Rng.bernoulli rng 0.3 then Some 3 else None in
  for burst = 1 to 8 do
    let edits = random_burst rng g mirror ~source in
    let fresh = oracle () in
    (* node growth: widen the running array like the session cache does *)
    if Array.length fresh > Array.length !dist then begin
      let d = Array.make (Array.length fresh) infinity in
      Array.blit !dist 0 d 0 (Array.length !dist);
      dist := d
    end;
    (match
       Dynamic_sssp.repair_dist scratch ?budget ~forbidden ~graph:g ~mirror
         ~source ~dist:!dist edits
     with
    | `Patched _ -> ()
    | `Overflow -> dist := fresh);
    Array.iteri
      (fun v dv ->
        if not (Float.equal dv !dist.(v)) then
          Alcotest.failf "burst %d: dist.(%d) = %.17g, oracle %.17g" burst v
            !dist.(v) dv)
      fresh
  done;
  true

(* Node-weighted repair through the node model's link view: random
   cost bursts over a fixed topology, a declaration on [x] applied as
   its deg(x) link edits (every reversed link out of [x] weighs [x]'s
   cost), the repair over the view held to the node-weighted
   reference. *)
let node_dist_prop seed =
  let rng = Test_util.rng seed in
  let g0 =
    if Rng.bernoulli rng 0.5 then Test_util.random_ring_graph rng
    else Test_util.random_sparse_graph rng
  in
  let n = Graph.n g0 in
  let source = Rng.int rng n in
  let forbidden = (source + 1 + Rng.int rng (n - 1)) mod n in
  let scratch = Dynamic_sssp.make_dist_scratch n in
  let g = ref g0 in
  let fwd, rev = Digraph.node_view g0 ~root:source in
  let oracle () = Payment_ref.node_dist ~avoid:forbidden !g ~source in
  let dist = oracle () in
  for burst = 1 to 8 do
    (* each declared node with its cost at burst start, even when the
       same node is declared twice in one burst *)
    let declared = ref [] in
    let k = 1 + Rng.int rng 3 in
    for _ = 1 to k do
      let x = Rng.int rng n in
      if x <> source then begin
        if not (List.mem_assoc x !declared) then
          declared := (x, Graph.cost !g x) :: !declared;
        let c1 =
          if Rng.bernoulli rng 0.3 then float_of_int (1 + Rng.int rng 2)
          else 0.05 +. Rng.float rng 5.0
        in
        g := Graph.with_cost !g x c1;
        Array.iter
          (fun y ->
            Digraph.set_weight rev x y c1;
            Digraph.set_weight fwd y x c1)
          (Graph.neighbors !g x)
      end
    done;
    let edits =
      List.concat_map
        (fun (x, c0) ->
          List.map
            (fun y -> { Dynamic_sssp.u = x; v = y; w0 = c0; w1 = Graph.cost !g x })
            (Array.to_list (Graph.neighbors !g x)))
        !declared
    in
    let fresh = oracle () in
    (match
       Dynamic_sssp.repair_dist scratch ~forbidden ~graph:rev ~mirror:fwd ~source
         ~dist edits
     with
    | `Patched _ -> ()
    | `Overflow -> Array.blit fresh 0 dist 0 n);
    Array.iteri
      (fun v dv ->
        if not (Float.equal dv dist.(v)) then
          Alcotest.failf "burst %d: dist.(%d) = %.17g, oracle %.17g" burst v
            dist.(v) dv)
      fresh
  done;
  true

(* Pinned fallback triggers ------------------------------------------- *)

let test_tie_fallback () =
  (* 0 -> 1 -> 3 and 0 -> 2; inserting 2 -> 3 at weight 1 creates a
     second path to 3 at the bit-identical distance 2.0 with a different
     parent: the repair must refuse to guess and rebuild. *)
  let g =
    Digraph.create ~n:4 ~links:[ (0, 1, 1.0); (1, 3, 1.0); (0, 2, 1.0) ]
  in
  let mirror = Digraph.reverse g in
  let dyn = Dynamic_sssp.create ~graph:g ~mirror ~source:0 in
  Digraph.set_weight g 2 3 1.0;
  Digraph.set_weight mirror 3 2 1.0;
  let outcome =
    Dynamic_sssp.apply dyn [ { Dynamic_sssp.u = 2; v = 3; w0 = infinity; w1 = 1.0 } ]
  in
  (match outcome with
  | Rebuilt { reason = `Tie } -> ()
  | Rebuilt { reason = `Region } -> Alcotest.fail "expected a tie, got region"
  | Patched _ -> Alcotest.fail "tie not detected");
  check_tree_matches "after tie fallback" g 0 dyn

let test_region_fallback () =
  (* rising the first link of a path orphans the whole chain: with a
     budget below the chain length the repair must fall back. *)
  let n = 10 in
  let links = List.init (n - 1) (fun v -> (v, v + 1, 1.0)) in
  let g = Digraph.create ~n ~links in
  let mirror = Digraph.reverse g in
  let dyn = Dynamic_sssp.create ~graph:g ~mirror ~source:0 in
  Digraph.set_weight g 0 1 2.0;
  Digraph.set_weight mirror 1 0 2.0;
  let edits = [ { Dynamic_sssp.u = 0; v = 1; w0 = 1.0; w1 = 2.0 } ] in
  (match Dynamic_sssp.apply ~budget:4 dyn edits with
  | Rebuilt { reason = `Region } -> ()
  | Rebuilt { reason = `Tie } -> Alcotest.fail "expected region, got tie"
  | Patched _ -> Alcotest.fail "budget not enforced");
  check_tree_matches "after region fallback" g 0 dyn

let test_patched_region_sizes () =
  (* off-tree rises touch nothing; an on-tree drop reparenting one node
     touches exactly that node. *)
  let g =
    Digraph.create ~n:3 ~links:[ (0, 1, 1.0); (1, 2, 1.0); (0, 2, 5.0) ]
  in
  let mirror = Digraph.reverse g in
  let dyn = Dynamic_sssp.create ~graph:g ~mirror ~source:0 in
  Digraph.set_weight g 0 2 6.0;
  Digraph.set_weight mirror 2 0 6.0;
  (match
     Dynamic_sssp.apply dyn [ { Dynamic_sssp.u = 0; v = 2; w0 = 5.0; w1 = 6.0 } ]
   with
  | Patched { region = 0 } -> ()
  | _ -> Alcotest.fail "off-tree rise should patch an empty region");
  Digraph.set_weight g 0 2 0.5;
  Digraph.set_weight mirror 2 0 0.5;
  (match
     Dynamic_sssp.apply dyn [ { Dynamic_sssp.u = 0; v = 2; w0 = 6.0; w1 = 0.5 } ]
   with
  | Patched { region = 1 } -> ()
  | _ -> Alcotest.fail "on-tree drop should patch a one-node region");
  check_tree_matches "after drops" g 0 dyn

let test_overflow_recovery () =
  (* `Overflow leaves the dist array corrupted; rebuilding from scratch
     must restore the exact oracle (the session's stale-entry path). *)
  let n = 10 in
  let links = List.init (n - 1) (fun v -> (v, v + 1, 1.0)) in
  let g = Digraph.create ~n ~links in
  let mirror = Digraph.reverse g in
  let scratch = Dynamic_sssp.make_dist_scratch n in
  let dist = Payment_ref.link_dist g ~source:0 in
  Digraph.set_weight g 0 1 2.0;
  Digraph.set_weight mirror 1 0 2.0;
  let edits = [ { Dynamic_sssp.u = 0; v = 1; w0 = 1.0; w1 = 2.0 } ] in
  (match
     Dynamic_sssp.repair_dist scratch ~budget:4 ~graph:g ~mirror ~source:0
       ~dist edits
   with
  | `Overflow -> ()
  | `Patched _ -> Alcotest.fail "budget not enforced");
  let fresh = Payment_ref.link_dist g ~source:0 in
  Array.blit fresh 0 dist 0 n;
  (* the scratch survives an aborted run: the next repair is exact *)
  Digraph.set_weight g 8 9 0.25;
  Digraph.set_weight mirror 9 8 0.25;
  (match
     Dynamic_sssp.repair_dist scratch ~graph:g ~mirror ~source:0 ~dist
       [ { Dynamic_sssp.u = 8; v = 9; w0 = 1.0; w1 = 0.25 } ]
   with
  | `Patched _ -> ()
  | `Overflow -> Alcotest.fail "unexpected overflow");
  let oracle = Payment_ref.link_dist g ~source:0 in
  Array.iteri
    (fun v dv ->
      if not (Float.equal dv dist.(v)) then
        Alcotest.failf "dist.(%d) = %.17g, oracle %.17g" v dist.(v) dv)
    oracle

let suite =
  [
    Alcotest.test_case "tie fallback pinned" `Quick test_tie_fallback;
    Alcotest.test_case "region fallback pinned" `Quick test_region_fallback;
    Alcotest.test_case "patched region sizes" `Quick test_patched_region_sizes;
    Alcotest.test_case "overflow recovery" `Quick test_overflow_recovery;
    Test_util.qcheck_case ~count:120 "tree repair == oracle (generic weights)"
      Test_util.seed_gen
      (tree_prop ~tied:false);
    Test_util.qcheck_case ~count:120 "tree repair == oracle (tied weights)"
      Test_util.seed_gen (tree_prop ~tied:true);
    Test_util.qcheck_case ~count:120 "dist repair == oracle" Test_util.seed_gen
      dist_prop;
    Test_util.qcheck_case ~count:120 "node dist repair == oracle"
      Test_util.seed_gen node_dist_prop;
  ]
