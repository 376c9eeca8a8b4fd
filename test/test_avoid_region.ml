(* The subtree-bounded avoidance kernels:

   - [Avoid_region.link_avoid]/[node_avoid] are [Float.equal]-identical
     to the full-CSR run and to {!Payment_ref}'s search for every relay
     — cut vertices (infinite avoidance) and unreachable nodes included;
   - [link_fill] on every relay of chain and UDG instances, link graphs
     and node graphs' link views, subtrees past n/2 included, equals
     the ban-mask sweep bit for bit,
     write nothing outside the subtree, and leave the scratch's working
     labels equal to the tree's and its heap empty — also when the
     scratch's previous repair overflowed and left keys in its heap;
   - whole payment batches stay bit-identical to the reference at pool
     sizes 1 and 3, under random edit/fill interleavings;
   - tied integer weights on a path topology, with a subtree past n/2,
     fill every relay region-only without perturbing payments. *)

open Wnet_graph
module Rng = Wnet_prng.Rng
module LS = Wnet_session.Link_session
module NS = Wnet_session.Node_session

let floats_equal a b =
  Array.length a = Array.length b && Array.for_all2 Float.equal a b

let random_digraph rng ~n =
  let links = ref [] in
  let p = 3.0 /. float_of_int n in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && Rng.bernoulli rng p then
        links := (u, v, Rng.float_range rng 0.5 10.0) :: !links
    done
  done;
  Digraph.create ~n ~links:!links

(* ---------------- kernel-level equivalence ---------------- *)

(* Every non-root node is a candidate relay: the bounded run must match
   the full-CSR run and the reference's search whatever the subtree looks
   like — empty (leaves), the whole reachable graph (root's only
   child), or disconnected from [k] entirely (unreachable nodes keep
   their [infinity] labels bit-for-bit). *)
let link_kernel_prop seed =
  let rng = Rng.create seed in
  let n = 4 + Rng.int rng 25 in
  let g = random_digraph rng ~n in
  let root = Rng.int rng n in
  let rev = Digraph.reverse g in
  let tree = Dijkstra.link_weighted rev root in
  let idx = Avoid_region.make_index tree in
  let ds = Dynamic_sssp.make_dist_scratch n in
  let scratch = Dijkstra.make_scratch n in
  let d = Array.make n nan in
  for k = 0 to n - 1 do
    if k <> root then begin
      if
        Avoid_region.link_avoid ds idx ~graph:rev ~mirror:g ~tree
          ~avoid:k ~dist:d
        < 0
      then QCheck2.Test.fail_reportf "negative region (k=%d)" k;
      let csr = Dijkstra.link_weighted_dist_csr scratch ~avoid:k rev root in
      let reference = Payment_ref.link_dist ~avoid:k rev ~source:root in
      if not (floats_equal d csr && floats_equal csr reference) then
        QCheck2.Test.fail_reportf "bounded/full/reference diverged at relay %d" k
    end
  done;
  true

let node_kernel_prop seed =
  let rng = Rng.create seed in
  let g = Test_util.random_ring_graph rng in
  let n = Graph.n g in
  let root = Rng.int rng n in
  let tree = Dijkstra.node_weighted g ~source:root in
  let idx = Avoid_region.make_index tree in
  let ds = Dynamic_sssp.make_dist_scratch n in
  let scratch = Dijkstra.make_scratch n in
  let d = Array.make n nan in
  for k = 0 to n - 1 do
    if k <> root then begin
      if
        Avoid_region.node_avoid ds idx ~graph:g ~tree ~avoid:k
          ~dist:d
        < 0
      then QCheck2.Test.fail_reportf "negative region (k=%d)" k;
      let csr = Dijkstra.node_weighted_dist_csr scratch ~avoid:k g ~source:root in
      let reference = Payment_ref.node_dist ~avoid:k g ~source:root in
      if not (floats_equal d csr && floats_equal csr reference) then
        QCheck2.Test.fail_reportf "bounded/full/reference diverged at relay %d" k
    end
  done;
  true

(* ---------------- fills on every relay, past n/2 included ---------------- *)

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* After the fill for relay [k] into a NaN array [d]: [d] holds the
   ban-mask sweep's labels on S(k) bit for bit and is untouched
   elsewhere, the scratch's working labels are the tree's again, and
   its heap is empty. *)
let check_fill ~what ds (idx : Avoid_region.index) (tree : Dijkstra.tree) k d
    sweep =
  let n = Array.length tree.Dijkstra.dist in
  let lo = idx.Avoid_region.pre.(k) and size = idx.Avoid_region.size.(k) in
  for x = 0 to n - 1 do
    let p = idx.Avoid_region.pre.(x) in
    if lo >= 0 && p > lo && p < lo + size then begin
      if not (bits_equal d.(x) sweep.(x)) then
        QCheck2.Test.fail_reportf "%s: relay %d, node %d: fill %h, sweep %h" what
          k x d.(x) sweep.(x)
    end
    else if not (Float.is_nan d.(x)) then
      QCheck2.Test.fail_reportf "%s: relay %d wrote node %d outside S(%d)" what k
        x k
  done;
  let lab = Dynamic_sssp.working_labels ds in
  for x = 0 to n - 1 do
    if not (bits_equal lab.(x) tree.Dijkstra.dist.(x)) then
      QCheck2.Test.fail_reportf "%s: after relay %d, working label %d is %h, tree %h"
        what k x lab.(x) tree.Dijkstra.dist.(x)
  done;
  if Dynamic_sssp.frontier ds <> 0 then
    QCheck2.Test.fail_reportf "%s: relay %d left %d keys in the heap" what k
      (Dynamic_sssp.frontier ds)

(* [link_fill] on every node but the root, each against the ban-mask
   sweep; [before ds] runs first on the same scratch.  Returns the
   widest region. *)
let link_fills ?(before = ignore) ~what g ~root =
  let n = Digraph.n g in
  let rev = Digraph.reverse g in
  let tree = Dijkstra.link_weighted rev root in
  let idx = Avoid_region.make_index tree in
  let ds = Dynamic_sssp.make_dist_scratch n and scratch = Dijkstra.make_scratch n in
  let widest = ref 0 in
  for k = 0 to n - 1 do
    if k <> root then begin
      before ds;
      let d = Array.make n nan in
      let r = Avoid_region.link_fill ds idx ~graph:rev ~mirror:g ~tree ~avoid:k ~dist:d in
      if r <> idx.Avoid_region.size.(k) - 1 then
        QCheck2.Test.fail_reportf "%s: relay %d: region %d" what k r;
      widest := max !widest r;
      check_fill ~what ds idx tree k d
        (Dijkstra.link_weighted_dist_csr scratch ~avoid:k rev root)
    end
  done;
  !widest

(* The node model: [link_fill] over the link view, on the node-weighted
   tree, against the node-weighted sweep. *)
let node_fills ?(before = ignore) ~what g ~root =
  let n = Graph.n g in
  let fwd, rev = Digraph.node_view g ~root in
  let tree = Dijkstra.node_weighted g ~source:root in
  let idx = Avoid_region.make_index tree in
  let ds = Dynamic_sssp.make_dist_scratch n and scratch = Dijkstra.make_scratch n in
  let widest = ref 0 in
  for k = 0 to n - 1 do
    if k <> root then begin
      before ds;
      let d = Array.make n nan in
      let r = Avoid_region.link_fill ds idx ~graph:rev ~mirror:fwd ~tree ~avoid:k ~dist:d in
      if r <> idx.Avoid_region.size.(k) - 1 then
        QCheck2.Test.fail_reportf "%s: relay %d: region %d" what k r;
      widest := max !widest r;
      check_fill ~what ds idx tree k d
        (Dijkstra.node_weighted_dist_csr scratch ~avoid:k g ~source:root)
    end
  done;
  !widest

let small_int rng = float_of_int (1 + Rng.int rng 3)

(* A chain toward the root (links [i+1 -> i], small integer weights, so
   ties abound) with a few detours dearer than any chain path: relay 1's
   subtree holds the n-2 nodes behind it. *)
let chain_digraph rng ~n =
  let links = List.init (n - 1) (fun i -> (i + 1, i, small_int rng)) in
  let detours =
    List.init (2 + Rng.int rng 4) (fun _ ->
        let u = 2 + Rng.int rng (n - 2) in
        (u, Rng.int rng (u - 1), float_of_int ((3 * n) + Rng.int rng n)))
  in
  Digraph.create ~n ~links:(links @ detours)

(* The node-model twin: a chain 0 - 1 - ... - (n-2) of small integer
   costs, and a bypass node n-1 dearer than any chain path, linked to a
   few chain nodes. *)
let chain_graph rng ~n =
  let costs =
    Array.init n (fun v ->
        if v = n - 1 then float_of_int (3 * n) else float_of_int (Rng.int rng 3))
  in
  let bypass = List.init (2 + Rng.int rng 4) (fun _ -> (Rng.int rng (n - 1), n - 1)) in
  Graph.create ~costs ~edges:(List.init (n - 2) (fun i -> (i, i + 1)) @ bypass)

(* A corridor UDG, deep enough for wide subtrees; disconnected draws
   leave unreached nodes, which stay [infinity]. *)
let corridor rng =
  let n = 20 + Rng.int rng 40 in
  Wnet_topology.Udg.generate rng
    ~region:(Wnet_geom.Region.make ~width:1500.0 ~height:400.0)
    ~n ~range:300.0

let past_half_prop seed =
  let rng = Rng.create seed in
  let n = 8 + Rng.int rng 40 in
  let wide what w = if 2 * w <= n then QCheck2.Test.fail_reportf "%s: widest %d" what w in
  wide "link chain" (link_fills ~what:"link chain" (chain_digraph rng ~n) ~root:0);
  wide "node chain" (node_fills ~what:"node chain" (chain_graph rng ~n) ~root:0);
  let u = corridor rng in
  let nu = Array.length u.Wnet_topology.Udg.points in
  ignore
    (link_fills ~what:"link UDG" ~root:0
       (Wnet_topology.Udg.link_graph u ~model:(Wnet_geom.Power.path_loss_only ~kappa:2.0)));
  ignore
    (node_fills ~what:"node UDG" ~root:0
       (Wnet_topology.Udg.node_graph u
          ~costs:(Array.init nu (fun _ -> float_of_int (Rng.int rng 4)))));
  true

(* A distance repair that overflows mid-settle leaves keys in the heap
   of its scratch: every link (or, over the node model's view, every
   link out of a relay) drops to 0 and the budget is 1, above the empty
   closure of a fall, so the repair stops at its second settled node
   with the rest of the seeds still queued (from a root of most links,
   three or more).  Each fill that follows on the same scratch must
   still be exact. *)
let drained_prop seed =
  let rng = Rng.create seed in
  let u = corridor rng in
  let n = Array.length u.Wnet_topology.Udg.points in
  let g = Wnet_topology.Udg.link_graph u ~model:(Wnet_geom.Power.path_loss_only ~kappa:2.0) in
  let rev = Digraph.reverse g in
  let root = ref 0 in
  for v = 1 to n - 1 do
    if Digraph.out_degree rev v > Digraph.out_degree rev !root then root := v
  done;
  let root = !root in
  let left = ref 0 in
  (* [rev] is the searched graph, [g] its reverse *)
  let overflow rev g =
    let dist = (Dijkstra.link_weighted rev root).Dijkstra.dist in
    let rev0 = Digraph.copy rev and g0 = Digraph.copy g in
    let edits =
      List.map
        (fun (a, b, w) ->
          Digraph.set_weight rev0 a b 0.0;
          Digraph.set_weight g0 b a 0.0;
          { Dynamic_sssp.u = a; v = b; w0 = w; w1 = 0.0 })
        (List.filter (fun (_, _, w) -> w > 0.0) (Digraph.links rev))
    in
    fun ds ->
      match
        Dynamic_sssp.repair_dist ds ~budget:1 ~graph:rev0 ~mirror:g0 ~source:root
          ~dist:(Array.copy dist) edits
      with
      | `Overflow -> left := !left + Dynamic_sssp.frontier ds
      | `Patched _ -> ()
  in
  ignore (link_fills ~before:(overflow rev g) ~what:"link, after an overflow" g ~root);
  let costs = Array.init n (fun _ -> 1.0 +. float_of_int (Rng.int rng 4)) in
  let ng = Wnet_topology.Udg.node_graph u ~costs in
  let fwd, nrev = Digraph.node_view ng ~root in
  ignore
    (node_fills ~before:(overflow nrev fwd) ~what:"node, after an overflow" ng ~root);
  if !left = 0 && Digraph.out_degree rev root >= 3 then
    QCheck2.Test.fail_reportf "no repair left keys behind";
  true

(* ---------------- sessions against the reference ---------------- *)

let link_agrees s what =
  Test_util.fail_on_diff what
    (Test_util.link_session_diff (LS.payments s)
       (Payment_ref.link (LS.snapshot s) ~root:0))

(* Random edit/fill interleavings: a session absorbs a stream of cost
   edits, node leaves and rejoins, with payment batches (= cache fills)
   demanded at random points, each against the reference.  Run once
   sequentially and once on a 3-domain pool. *)
let session_interleaving_prop ~domains seed =
  let rng = Rng.create seed in
  let n = 8 + Rng.int rng 17 in
  let g = random_digraph rng ~n in
  let run pool =
    let s = LS.create ?pool g ~root:0 in
    link_agrees s "cold start";
    let removed = ref [] in
    for step = 1 to 12 do
      (match Rng.int rng 6 with
      | 0 | 1 | 2 ->
        let u = Rng.int rng n and v = Rng.int rng n in
        (* leave detached nodes isolated so rejoin stays legal *)
        if u <> v && (not (List.mem u !removed)) && not (List.mem v !removed)
        then begin
          let w =
            if Rng.bernoulli rng 0.2 then infinity
            else Rng.float_range rng 0.5 10.0
          in
          LS.set_cost s u v w
        end
      | 3 ->
        let k = 1 + Rng.int rng (n - 1) in
        if not (List.mem k !removed) then begin
          LS.remove_node s k;
          removed := k :: !removed
        end
      | 4 -> (
        match !removed with
        | k :: rest ->
          let out = [ (Rng.int rng n, Rng.float_range rng 0.5 10.0) ] in
          (* never link to a node still detached (k included), or that
             node could no longer rejoin *)
          let out = List.filter (fun (v, _) -> not (List.mem v !removed)) out in
          LS.rejoin_node s k ~out ~inn:[];
          removed := rest
        | [] -> ())
      | _ -> link_agrees s (Printf.sprintf "step %d" step));
      if step mod 4 = 0 then link_agrees s (Printf.sprintf "step %d" step)
    done;
    link_agrees s "final";
    (* every refill ran the region-only kernel; no fallback is left *)
    let st = LS.stats s in
    if st.LS.avoid_bounded + st.LS.avoid_fallback <> st.LS.avoid_runs then
      QCheck2.Test.fail_reportf "refills not accounted for";
    if st.LS.avoid_fallback <> 0 then
      QCheck2.Test.fail_reportf "%d refills fell back" st.LS.avoid_fallback
  in
  if domains = 1 then run None
  else Wnet_par.with_pool ~domains (fun pool -> run (Some pool));
  true

let node_session_prop seed =
  let rng = Rng.create seed in
  let g = Test_util.random_ring_graph rng in
  let n = Graph.n g in
  let s = NS.create g ~root:0 in
  let agree what =
    Test_util.fail_on_diff what
      (Test_util.node_session_diff (NS.payments s)
         (Payment_ref.node (NS.graph s) ~root:0))
  in
  agree "cold start";
  for step = 1 to 10 do
    (match Rng.int rng 5 with
    | 0 | 1 | 2 ->
      let x = 1 + Rng.int rng (n - 1) in
      NS.set_cost s x (Rng.float_range rng 0.0 5.0)
    | 3 -> NS.remove_node s (1 + Rng.int rng (n - 1))
    | _ -> agree (Printf.sprintf "step %d" step));
    if step mod 3 = 0 then agree (Printf.sprintf "step %d" step)
  done;
  agree "final";
  true

(* ---------------- tied integer weights, a subtree past n/2 ------------- *)

(* A unit-weight path 0 <- 1 <- ... <- n-1: relay 1's subtree holds the
   n-2 nodes behind it, past half the graph, and every distance is a
   tie-rich small integer.  Every refill runs the region-only fill (no
   fallback is left) and payments stay identical to the reference. *)
let test_tied_path_fills_bounded () =
  let n = 100 in
  let links = List.init (n - 1) (fun i -> (i + 1, i, 1.0)) in
  (* a detour so relay payments stay finite for early relays *)
  let links = (n - 1, 0, float_of_int n) :: links in
  let g = Digraph.create ~n ~links in
  let sb = LS.create g ~root:0 in
  Alcotest.(check (option string)) "payments match the reference" None
    (Test_util.link_session_diff (LS.payments sb) (Payment_ref.link g ~root:0));
  let tree, _ = LS.charges sb in
  Alcotest.(check bool) "relay 1's subtree is past n/2" true
    (2 * ((Avoid_region.make_index tree).Avoid_region.size.(1) - 1) > n);
  let st = LS.stats sb in
  Alcotest.(check int) "no fallback" 0 st.LS.avoid_fallback;
  Alcotest.(check int) "every refill ran the region-only fill" st.LS.avoid_runs
    st.LS.avoid_bounded;
  Alcotest.(check int) "every relay filled exactly once" (n - 2) st.LS.avoid_runs

(* ---------------- pinned unit: leaf relay, size-1 subtree --------- *)

let test_leaf_relay_pinned () =
  (* toward-root links: 1 -> 0 (w 1), 2 -> 1 (w 1), detour 2 -> 0 (w 5).
     Reversed tree from root 0: parent(1) = 0, parent(2) = 1 — relay 1
     serves exactly leaf 2, so its region is the single node {2}. *)
  let g =
    Digraph.create ~n:3 ~links:[ (1, 0, 1.0); (2, 1, 1.0); (2, 0, 5.0) ]
  in
  let rev = Digraph.reverse g in
  let tree = Dijkstra.link_weighted rev 0 in
  Alcotest.(check int) "relay 1 parents leaf 2" 1 tree.Dijkstra.parent.(2);
  let idx = Avoid_region.make_index tree in
  let ds = Dynamic_sssp.make_dist_scratch 3 in
  let d = Array.make 3 nan in
  Alcotest.(check int) "region is the single leaf" 1
    (Avoid_region.link_avoid ds idx ~graph:rev ~mirror:g ~tree ~avoid:1
       ~dist:d);
  Test_util.check_float "root keeps 0" 0.0 d.(0);
  Alcotest.(check bool) "silenced relay reads infinity" true (d.(1) = infinity);
  Test_util.check_float "leaf reroutes over the detour" 5.0 d.(2);
  (* drop the detour: relay 1 becomes a cut vertex and the leaf's
     avoidance distance goes unbounded *)
  let g' = Digraph.create ~n:3 ~links:[ (1, 0, 1.0); (2, 1, 1.0) ] in
  let rev' = Digraph.reverse g' in
  let tree' = Dijkstra.link_weighted rev' 0 in
  let idx' = Avoid_region.make_index tree' in
  Alcotest.(check bool) "cut-vertex run reports its region" true
    (Avoid_region.link_avoid ds idx' ~graph:rev' ~mirror:g' ~tree:tree'
       ~avoid:1 ~dist:d
    >= 0);
  Alcotest.(check bool) "cut vertex yields infinite avoidance" true
    (d.(2) = infinity);
  let s = LS.create g' ~root:0 in
  ignore (LS.payments s);
  Alcotest.(check (list int)) "session flags the monopoly relay" [ 1 ]
    (LS.unbounded_relays s)

(* ---------------- region-only session entries ---------------- *)

(* After every payments, each exact entry must hold, on its relay's
   strict descendants in the current shared tree, exactly the labels of
   the full-array kernel — compared as bits — and every charge must be
   the from-scratch oracle's.  Weights and costs are small integers, so
   ties occur; bursts mix rises and falls, deletions and insertions,
   joins, leaves and rejoins (links), or cost edits and leaves (nodes). *)

let int_weight rng = float_of_int (1 + Rng.int rng 4)

let int_digraph rng ~n =
  let links = ref [] in
  let p = 3.0 /. float_of_int n in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && Rng.bernoulli rng p then links := (u, v, int_weight rng) :: !links
    done
  done;
  Digraph.create ~n ~links:!links

let check_entries ~what (tree : Dijkstra.tree) entries fresh =
  let idx = Avoid_region.make_index tree in
  List.iter
    (fun (j, a) ->
      let d = fresh idx j in
      let lo = idx.Avoid_region.pre.(j) in
      for i = lo + 1 to lo + idx.Avoid_region.size.(j) - 1 do
        let x = idx.Avoid_region.order.(i) in
        if not (bits_equal a.(x) d.(x)) then
          QCheck2.Test.fail_reportf "%s: entry %d, node %d: %h, fresh %h" what j x
            a.(x) d.(x)
      done)
    entries

let random_int_link_op rng s =
  let nn = LS.n s in
  let u = Rng.int rng nn and v = Rng.int rng nn in
  match Rng.int rng 10 with
  | 0 | 1 | 2 | 3 | 4 ->
    (* a rise or a fall of an existing link, else an insertion *)
    if u <> v then
      let w = LS.cost s u v in
      LS.set_cost s u v
        (if w = infinity then int_weight rng
         else if Rng.bernoulli rng 0.5 then w +. 1.0
         else Float.max 0.0 (w -. 1.0))
  | 5 -> if u <> v then LS.set_cost s u v infinity
  | 6 -> LS.remove_node s (1 + Rng.int rng (nn - 1))
  | 7 ->
    let g = LS.snapshot s in
    let in_deg = Array.make nn 0 in
    List.iter (fun (_, y, _) -> in_deg.(y) <- in_deg.(y) + 1) (Digraph.links g);
    let iso = ref None in
    for k = nn - 1 downto 1 do
      if Digraph.out_degree g k = 0 && in_deg.(k) = 0 then iso := Some k
    done;
    Option.iter
      (fun k ->
        let link () = ((k + 1 + Rng.int rng (nn - 1)) mod nn, int_weight rng) in
        LS.rejoin_node s k ~out:[ link () ] ~inn:[ link (); link () ])
      !iso
  | _ ->
    let link () = (Rng.int rng nn, int_weight rng) in
    ignore (LS.add_node s ~out:[ link () ] ~inn:[ link (); link () ])

let link_entries_prop ~domains seed =
  let rng = Rng.create seed in
  let n = 8 + Rng.int rng 20 in
  let g = int_digraph rng ~n in
  Wnet_par.with_pool ~domains (fun pool ->
      let s = LS.create ~pool g ~root:0 in
      for burst = 0 to 12 do
        for _ = 1 to Rng.int rng 8 do
          random_int_link_op rng s
        done;
        let what = Printf.sprintf "burst %d" burst in
        let graph = LS.snapshot s in
        let rev = Digraph.reverse graph in
        let nn = Digraph.n graph in
        link_agrees s what;
        let tree, _ = LS.charges s in
        let ds = Dynamic_sssp.make_dist_scratch nn in
        check_entries ~what tree (LS.entries s) (fun idx j ->
            let d = Array.make nn nan in
            if Avoid_region.link_avoid ds idx ~graph:rev ~mirror:graph ~tree
                 ~avoid:j ~dist:d < 0
            then QCheck2.Test.fail_reportf "%s: fresh kernel overflowed" what;
            d)
      done;
      true)

let int_node_graph rng =
  let n = 6 + Rng.int rng 25 in
  let costs = Array.init n (fun _ -> float_of_int (Rng.int rng 4)) in
  let edges = ref (List.init n (fun v -> (v, (v + 1) mod n))) in
  for _ = 1 to Rng.int rng n do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then edges := (u, v) :: !edges
  done;
  Graph.create ~costs ~edges:!edges

let node_entries_prop ~domains seed =
  let rng = Rng.create seed in
  let g = int_node_graph rng in
  let n = Graph.n g in
  Wnet_par.with_pool ~domains (fun pool ->
      let s = NS.create ~pool g ~root:0 in
      for burst = 0 to 12 do
        for _ = 1 to Rng.int rng 8 do
          let x = Rng.int rng n in
          if Rng.bernoulli rng 0.85 then NS.set_cost s x (float_of_int (Rng.int rng 5))
          else if x <> 0 then NS.remove_node s x
        done;
        let what = Printf.sprintf "burst %d" burst in
        Test_util.fail_on_diff what
          (Test_util.node_session_diff (NS.payments s)
             (Payment_ref.node (NS.graph s) ~root:0));
        let tree, _ = NS.charges s in
        let ds = Dynamic_sssp.make_dist_scratch n in
        check_entries ~what tree (NS.entries s) (fun idx j ->
            let d = Array.make n nan in
            if Avoid_region.node_avoid ds idx ~graph:(NS.graph s) ~tree ~avoid:j
                 ~dist:d < 0
            then QCheck2.Test.fail_reportf "%s: fresh kernel overflowed" what;
            d)
      done;
      true)

let suite =
  [
    Test_util.qcheck_case ~count:60 "link bounded = full CSR = reference"
      Test_util.seed_gen link_kernel_prop;
    Test_util.qcheck_case ~count:60 "node bounded = full CSR = reference"
      Test_util.seed_gen node_kernel_prop;
    Test_util.qcheck_case ~count:30 "fills past n/2, chains and UDGs = ban-mask sweep (bits)"
      Test_util.seed_gen past_half_prop;
    Test_util.qcheck_case ~count:20 "fills after an overflowed repair = ban-mask sweep (bits)"
      Test_util.seed_gen drained_prop;
    Test_util.qcheck_case ~count:15 "link sessions agree under churn with the reference (pool 1)"
      Test_util.seed_gen
      (session_interleaving_prop ~domains:1);
    Test_util.qcheck_case ~count:10 "link sessions agree under churn with the reference (pool 3)"
      Test_util.seed_gen
      (session_interleaving_prop ~domains:3);
    Test_util.qcheck_case ~count:20 "node sessions agree under churn with the reference"
      Test_util.seed_gen node_session_prop;
    Alcotest.test_case "tied unit-weight path: every relay filled bounded" `Quick
      test_tied_path_fills_bounded;
    Alcotest.test_case "leaf relay: size-1 region, cut-vertex variant" `Quick
      test_leaf_relay_pinned;
    Test_util.qcheck_case ~count:40
      "link entries (pool 1) = fresh kernel on S(j), payments = reference (bits)"
      Test_util.seed_gen (link_entries_prop ~domains:1);
    Test_util.qcheck_case ~count:25
      "link entries (pool 3) = fresh kernel on S(j), payments = reference (bits)"
      Test_util.seed_gen (link_entries_prop ~domains:3);
    Test_util.qcheck_case ~count:40
      "node entries (pool 1) = fresh kernel on S(j), payments = reference (bits)"
      Test_util.seed_gen (node_entries_prop ~domains:1);
    Test_util.qcheck_case ~count:25
      "node entries (pool 3) = fresh kernel on S(j), payments = reference (bits)"
      Test_util.seed_gen (node_entries_prop ~domains:3);
  ]
