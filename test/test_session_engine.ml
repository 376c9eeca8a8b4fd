(* The session engine's determinism contract (ISSUE: incremental payment
   sessions): after ANY sequence of topology deltas, the incrementally
   maintained batch must be bit-identical — [Float.equal], including
   [infinity] payments at cut vertices — to a from-scratch batch on the
   edited graph, at every pool size.  The oracle in both models is
   {!Payment_ref}, which shares no code with the sessions. *)

open Wnet_graph
module LS = Wnet_session.Link_session
module NS = Wnet_session.Node_session
module LC = Wnet_core.Link_cost
module U = Wnet_core.Unicast
module Par = Wnet_par
module Rng = Wnet_prng.Rng

let float_exact =
  Alcotest.testable (fun ppf x -> Format.fprintf ppf "%h" x) Float.equal

let check_exact = Alcotest.check float_exact

let floats_equal a b =
  Array.length a = Array.length b && Array.for_all2 Float.equal a b

(* ---------------- link model: batch comparators ---------------- *)

(* A batch of session [s] against the reference on its current
   topology. *)
let check_link_ref what s b =
  Alcotest.(check (option string)) what None
    (Test_util.link_session_diff b (Payment_ref.link (LS.snapshot s) ~root:0))

let link_batches_equal (a : LS.batch) (b : LS.batch) =
  a.LS.root = b.LS.root
  && floats_equal a.LS.to_root_dist b.LS.to_root_dist
  && Array.length a.LS.results = Array.length b.LS.results
  && Array.for_all2
       (fun x y ->
         match (x, y) with
         | None, None -> true
         | Some (x : LS.outcome), Some (y : LS.outcome) ->
           x.LS.src = y.LS.src && x.LS.path = y.LS.path
           && Float.equal x.LS.lcp_cost y.LS.lcp_cost
           && Float.equal x.LS.relay_cost y.LS.relay_cost
           && floats_equal x.LS.relay_pay y.LS.relay_pay
           && Float.equal x.LS.charge y.LS.charge
         | _ -> false)
       a.LS.results b.LS.results

(* ---------------- link model: random instances and edits ---------------- *)

(* Sparse random digraph: expected out-degree ~2.5, so cut vertices,
   disconnected sources, and unbounded payments all occur. *)
let random_digraph rng ~n =
  let links = ref [] in
  let p = 2.5 /. float_of_int n in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && Rng.bernoulli rng p then
        links := (u, v, Rng.float_range rng 0.5 10.0) :: !links
    done
  done;
  Digraph.create ~n ~links:!links

let random_links rng ~n ~self =
  let deg = 1 + Rng.int rng 3 in
  List.filter_map
    (fun _ ->
      let x = Rng.int rng n in
      if x = self then None else Some (x, Rng.float_range rng 0.5 10.0))
    (List.init deg Fun.id)

(* One random delta, drawn from the rng and from session state every
   replica shares, so identically seeded rngs replay it against several
   sessions ([None]: the draw picked nothing to do). *)
let random_link_delta rng s : Wnet_session.delta option =
  let nn = LS.n s in
  match Rng.int rng 6 with
  | 0 | 1 | 2 ->
    (* cost change, link insert, or link delete (w = infinity) *)
    let u = Rng.int rng nn and v = Rng.int rng nn in
    if u <> v then
      let w =
        if Rng.bernoulli rng 0.2 then infinity
        else Rng.float_range rng 0.5 10.0
      in
      Some (Set_link_cost { u; v; w })
    else None
  | 3 ->
    (* node leave (never the root, which is 0 here) *)
    Some (Leave { node = 1 + Rng.int rng (nn - 1) })
  | 4 -> (
    (* rejoin the lowest-id isolated node, when one exists *)
    let snap = LS.snapshot s in
    let in_deg = Array.make nn 0 in
    List.iter (fun (_, v, _) -> in_deg.(v) <- in_deg.(v) + 1) (Digraph.links snap);
    let iso = ref None in
    for k = nn - 1 downto 1 do
      if Digraph.out_degree snap k = 0 && in_deg.(k) = 0 then iso := Some k
    done;
    match !iso with
    | None -> None
    | Some k ->
      let inn = random_links rng ~n:nn ~self:k in
      let out = random_links rng ~n:nn ~self:k in
      Some (Rejoin { node = k; out; inn }))
  | _ ->
    let inn = random_links rng ~n:nn ~self:(-1) in
    let out = random_links rng ~n:nn ~self:(-1) in
    Some (Join { out; inn })

let apply_link_delta s : Wnet_session.delta -> unit = function
  | Set_link_cost { u; v; w } -> LS.set_cost s u v w
  | Leave { node } -> LS.remove_node s node
  | Rejoin { node; out; inn } -> LS.rejoin_node s node ~out ~inn
  | Join { out; inn } -> ignore (LS.add_node s ~out ~inn)
  | Set_node_cost _ -> invalid_arg "apply_link_delta: node-model delta"

let apply_random_op rng s = Option.iter (apply_link_delta s) (random_link_delta rng s)

(* Burst boundaries for the third replica: after op [i] it pays iff
   [ends.(i)], with bursts of 1–64 ops — long bursts push the flush
   policy onto its drop-and-refill branch, single ops onto repair. *)
let burst_ends rng nops =
  let ends = Array.make (nops + 1) false in
  ends.(0) <- true;
  let i = ref 0 in
  while !i < nops do
    i := min nops (!i + 1 + Rng.int rng 64);
    ends.(!i) <- true
  done;
  ends

let link_equiv_prop seed =
  let rng = Rng.create seed in
  let n = 8 + Rng.int rng 21 in
  let g = random_digraph rng ~n in
  let nops = 4 + Rng.int rng 61 in
  let ends = burst_ends rng nops in
  let oseed = seed lxor 0x2545f49 in
  Par.with_pool ~domains:3 (fun pool ->
      let s_seq = LS.create g ~root:0 in
      let s_par = LS.create ~pool g ~root:0 in
      let s_burst = LS.create ~pool g ~root:0 in
      let check i label =
        let b_seq = LS.payments s_seq in
        let b_par = LS.payments s_par in
        if not (link_batches_equal b_seq b_par) then
          QCheck2.Test.fail_reportf "%s: pooled batch differs from sequential"
            label;
        if ends.(i) && not (link_batches_equal b_seq (LS.payments s_burst)) then
          QCheck2.Test.fail_reportf
            "%s: batch paid after a burst differs from paying every op" label;
        let oracle = Payment_ref.link (LS.snapshot s_seq) ~root:0 in
        Test_util.fail_on_diff label (Test_util.link_session_diff b_seq oracle);
        if LS.unbounded_relays s_seq <> Test_util.ref_unbounded oracle then
          QCheck2.Test.fail_reportf "%s: unbounded relay set differs" label
      in
      check 0 "initial";
      let r_seq = Rng.create oseed
      and r_par = Rng.create oseed
      and r_burst = Rng.create oseed in
      for i = 1 to nops do
        apply_random_op r_seq s_seq;
        apply_random_op r_par s_par;
        apply_random_op r_burst s_burst;
        check i (Printf.sprintf "after op %d" i)
      done;
      true)

(* ---------------- node model: oracle comparison ---------------- *)

(* A batch of session [s] against the reference on its current
   topology. *)
let node_ref_diff s b =
  Test_util.node_session_diff b (Payment_ref.node (NS.graph s) ~root:0)

let node_sessions_equal (x : NS.outcome option array) (y : NS.outcome option array)
    =
  Array.length x = Array.length y
  && Array.for_all2
       (fun a b ->
         match (a, b) with
         | None, None -> true
         | Some (a : NS.outcome), Some (b : NS.outcome) ->
           a.NS.src = b.NS.src && a.NS.path = b.NS.path
           && Float.equal a.NS.lcp_cost b.NS.lcp_cost
           && floats_equal a.NS.relay_pay b.NS.relay_pay
           && Float.equal a.NS.charge b.NS.charge
         | _ -> false)
       x y

let random_node_delta rng s : Wnet_session.delta option =
  let nn = NS.n s in
  if Rng.bernoulli rng 0.7 then
    (* any node, including the root: the root's declared cost must not
       disturb payments or caches *)
    let cost = Rng.float_range rng 0.05 8.0 in
    Some (Set_node_cost { node = Rng.int rng nn; cost })
  else
    let k = Rng.int rng nn in
    if k <> NS.root s then Some (Leave { node = k }) else None

let apply_node_delta s : Wnet_session.delta -> unit = function
  | Set_node_cost { node; cost } -> NS.set_cost s node cost
  | Leave { node } -> NS.remove_node s node
  | _ -> invalid_arg "apply_node_delta: link-model delta"

let apply_random_node_op rng s = Option.iter (apply_node_delta s) (random_node_delta rng s)

let node_equiv_prop seed =
  let rng = Rng.create seed in
  let g =
    if Rng.bernoulli rng 0.5 then Test_util.random_ring_graph rng
    else Test_util.random_sparse_graph rng
  in
  let nops = 4 + Rng.int rng 61 in
  let ends = burst_ends rng nops in
  let oseed = seed lxor 0x51ed270b in
  Par.with_pool ~domains:3 (fun pool ->
      let s_seq = NS.create g ~root:0 in
      let s_par = NS.create ~pool g ~root:0 in
      let s_burst = NS.create ~pool g ~root:0 in
      let check i label =
        let a = NS.payments s_seq in
        let b = NS.payments s_par in
        if not (node_sessions_equal a b) then
          QCheck2.Test.fail_reportf "%s: pooled batch differs from sequential"
            label;
        if ends.(i) && not (node_sessions_equal a (NS.payments s_burst)) then
          QCheck2.Test.fail_reportf
            "%s: batch paid after a burst differs from paying every op" label;
        let oracle = Payment_ref.node (NS.graph s_seq) ~root:0 in
        Test_util.fail_on_diff label (Test_util.node_session_diff a oracle);
        if NS.unbounded_relays s_seq <> Test_util.ref_unbounded oracle then
          QCheck2.Test.fail_reportf "%s: unbounded relay set differs" label
      in
      check 0 "initial";
      let r_seq = Rng.create oseed
      and r_par = Rng.create oseed
      and r_burst = Rng.create oseed in
      for i = 1 to nops do
        apply_random_node_op r_seq s_seq;
        apply_random_node_op r_par s_par;
        apply_random_node_op r_burst s_burst;
        check i (Printf.sprintf "after op %d" i)
      done;
      true)

(* ---------------- kept tree-shape products ---------------- *)

(* Bursts that move labels but no parent keep the cache's index and
   relays, the link engine's tree-link slots and the pay view's paths;
   the avoidance fills then re-copy their working labels because the
   tree stamp moved, not because the index did.  Tree links (relay
   costs) re-declared at ×(1 ± 1e-9), mixed with ordinary
   re-declarations that move parents, paid after every burst and held
   to the reference (leaves, joins and deletions are the older
   properties' business: they would strand the root here).  At least
   [kept_floor] of the 30 bursts must move labels and keep every
   parent, so the case really runs.  The engine's [tree_index] must be
   a new value after a burst that moved a parent, and the same value
   after one that moved labels and kept every parent. *)
let kept_floor = 8

let kept_prop ~model ~parents_dist ~index ~drift ~ordinary ~check seed =
  let r = Rng.create (seed lxor 0x7f4a7c15) in
  let kept = ref 0 in
  let before = ref (parents_dist ()) and idx = ref (index ()) in
  for b = 1 to 30 do
    let edits =
      if Rng.bernoulli r 0.7 then drift r (fst !before) (1 + Rng.int r 6)
      else ordinary r
    in
    check (Printf.sprintf "%s burst %d (%d edits)" model b edits);
    let ((p1, d1) as now) = parents_dist () in
    let p0, d0 = !before in
    let i1 = index () in
    if p0 <> p1 && i1 == !idx then
      QCheck2.Test.fail_reportf "%s burst %d: a parent moved, the tree index was kept"
        model b;
    if edits > 0 && p0 = p1 && not (floats_equal d0 d1) then begin
      if i1 != !idx then
        QCheck2.Test.fail_reportf
          "%s burst %d: labels moved and every parent kept, the tree index was rebuilt"
          model b;
      incr kept
    end;
    before := now;
    idx := i1
  done;
  !kept >= kept_floor
  || QCheck2.Test.fail_reportf "%s: %d of 30 bursts moved labels and kept every parent"
       model !kept

(* A random digraph on a two-way ring: every node reaches the root. *)
let ring_digraph rng =
  let n = 10 + Rng.int rng 21 in
  let ring =
    List.concat_map
      (fun v -> [ (v, (v + 1) mod n, Rng.float_range rng 0.5 10.0);
                  ((v + 1) mod n, v, Rng.float_range rng 0.5 10.0) ])
      (List.init n Fun.id)
  in
  Digraph.create ~n ~links:(ring @ Digraph.links (random_digraph rng ~n))

let link_kept_prop seed =
  let g = ring_digraph (Rng.create seed) in
  Par.with_pool ~domains:3 (fun pool ->
      List.for_all
        (fun pool ->
          let s = LS.create ~pool g ~root:0 in
          let parents_dist () =
            let tree, _ = LS.charges s in
            (Array.copy tree.Dijkstra.parent, Array.copy tree.Dijkstra.dist)
          in
          let drift r parents k =
            let ds =
              Test_util.drift_burst r ~model:`Link ~root:0 ~parents ~cost:(LS.cost s) k
            in
            List.iter (apply_link_delta s) ds;
            List.length ds
          in
          let links = Array.of_list (Digraph.links g) in
          let ordinary r =
            let k = 1 + Rng.int r 4 in
            for _ = 1 to k do
              let u, v, _ = links.(Rng.int r (Array.length links)) in
              LS.set_cost s u v (Rng.float_range r 0.5 10.0)
            done;
            k
          in
          let check label =
            Test_util.fail_on_diff label
              (Test_util.link_session_diff (LS.payments s)
                 (Payment_ref.link (LS.snapshot s) ~root:0))
          in
          kept_prop ~model:"link" ~parents_dist
            ~index:(fun () -> LS.tree_index s)
            ~drift ~ordinary ~check seed)
        [ Par.sequential; pool ])

let node_kept_prop seed =
  let g = Test_util.random_ring_graph ~min_n:20 (Rng.create seed) in
  Par.with_pool ~domains:3 (fun pool ->
      List.for_all
        (fun pool ->
          let s = NS.create ~pool g ~root:0 in
          let parents_dist () =
            let tree, _ = NS.charges s in
            (Array.copy tree.Dijkstra.parent, Array.copy tree.Dijkstra.dist)
          in
          let drift r parents k =
            let ds =
              Test_util.drift_burst r ~model:`Node ~root:0 ~parents
                ~cost:(fun x _ -> NS.cost s x) k
            in
            List.iter (apply_node_delta s) ds;
            List.length ds
          in
          let ordinary r =
            let k = 1 + Rng.int r 4 in
            for _ = 1 to k do
              NS.set_cost s (Rng.int r (NS.n s)) (Rng.float_range r 0.05 8.0)
            done;
            k
          in
          let check label =
            Test_util.fail_on_diff label (node_ref_diff s (NS.payments s))
          in
          kept_prop ~model:"node" ~parents_dist
            ~index:(fun () -> NS.tree_index s)
            ~drift ~ordinary ~check seed)
        [ Par.sequential; pool ])

(* ---------------- in-place digraph mutation ---------------- *)

let test_digraph_mutation () =
  let g = Digraph.create ~n:3 ~links:[ (0, 1, 2.0); (1, 2, 3.0) ] in
  Alcotest.(check int) "fresh graph at version 0" 0 (Digraph.version g);
  Digraph.set_weight g 0 1 5.0;
  check_exact "update in place" 5.0 (Digraph.weight g 0 1);
  Digraph.set_weight g 2 0 1.5;
  check_exact "insert in place" 1.5 (Digraph.weight g 2 0);
  Alcotest.(check int) "m counts the insert" 3 (Digraph.m g);
  Digraph.set_weight g 1 2 infinity;
  check_exact "infinity removes" infinity (Digraph.weight g 1 2);
  Alcotest.(check int) "m counts the removal" 2 (Digraph.m g);
  Alcotest.(check int) "every mutation bumps the version" 3 (Digraph.version g);
  let c = Digraph.copy g in
  Alcotest.(check int) "copy restarts history" 0 (Digraph.version c);
  Digraph.set_weight c 0 1 9.0;
  check_exact "copies are independent" 5.0 (Digraph.weight g 0 1);
  let id = Digraph.add_node g in
  Alcotest.(check int) "dense new id" 3 id;
  Digraph.set_weight g 3 0 1.0;
  Digraph.detach_node g 0;
  Alcotest.(check int) "detach drops out-links" 0 (Digraph.out_degree g 0);
  check_exact "detach drops in-links" infinity (Digraph.weight g 3 0)

(* ---------------- selective invalidation, observably ---------------- *)

(* Chain 3 -> 2 -> 1 -> 0 plus a pendant 4 -> 0 and a slack link 4 -> 1
   that no shortest path (avoidance or not) ever uses: editing it must
   keep every cache, and a repeat batch must be memoized. *)
let test_selective_invalidation () =
  let g =
    Digraph.create ~n:5
      ~links:[ (1, 0, 1.0); (2, 1, 1.0); (3, 2, 1.0); (4, 0, 1.0); (4, 1, 50.0) ]
  in
  let s = LS.create g ~root:0 in
  ignore (LS.payments s);
  let st1 = LS.stats s in
  Alcotest.(check int) "two relays computed" 2 st1.LS.avoid_runs;
  LS.set_cost s 4 1 45.0;
  let b = LS.payments s in
  let st2 = LS.stats s in
  Alcotest.(check int) "slack edit reruns no avoidance Dijkstra"
    st1.LS.avoid_runs st2.LS.avoid_runs;
  Alcotest.(check int) "slack edit serves both relays from cache"
    (st1.LS.avoid_reused + 2) st2.LS.avoid_reused;
  Alcotest.(check int) "shared tree patched, not recomputed" st1.LS.spt_runs
    st2.LS.spt_runs;
  Alcotest.(check int) "tree repaired in place, both caches kept unrepaired"
    (st1.LS.repaired_entries + 1) st2.LS.repaired_entries;
  Alcotest.(check int) "no repair fell back" st1.LS.fallback_recomputes
    st2.LS.fallback_recomputes;
  Alcotest.(check bool) "repeat batch is memoized" true (b == LS.payments s);
  Alcotest.(check int) "memoized batch does no work" st2.LS.avoid_reused
    (LS.stats s).LS.avoid_reused;
  (* the incremental answer is still the from-scratch answer *)
  check_link_ref "still matches the oracle" s b

(* ---------------- the flush policy's repair and drop branches ---------------- *)

(* Relay 2 serves 64 leaves and forwards through relay 1.  Each leaf
   also has a dear direct link to the root, which only the searches
   avoiding 1 or 2 use.  Both relay subtrees exceed the region budget
   (33 nodes at n = 67), so refilling either entry costs a full
   Dijkstra.  ({!test_selective_invalidation} pins the third branch: a
   slack edit keeps every entry without a repair call.) *)
let star_graph () =
  Digraph.create ~n:67
    ~links:
      ((1, 0, 1.0) :: (2, 1, 1.0) :: (2, 0, 10.0)
      :: List.concat_map (fun x -> [ (x, 2, 1.0); (x, 0, 10.0) ])
           (List.init 64 (fun i -> i + 3)))

let test_policy_repairs_light_burst () =
  let s = LS.create (star_graph ()) ~root:0 in
  ignore (LS.payments s);
  let st1 = LS.stats s in
  (* leaf 3's direct link gets cheaper: both avoidance searches use it,
     so both entries are touched, by one edit whose head subtree is a
     single node *)
  LS.set_cost s 3 0 9.0;
  let b = LS.payments s in
  let st2 = LS.stats s in
  Alcotest.(check int) "tree and both touched caches repaired in place"
    (st1.LS.repaired_entries + 3) st2.LS.repaired_entries;
  Alcotest.(check int) "nothing refilled" st1.LS.avoid_runs st2.LS.avoid_runs;
  Alcotest.(check int) "no repair fell back" st1.LS.fallback_recomputes
    st2.LS.fallback_recomputes;
  check_link_ref "repaired caches match the oracle" s b

let test_policy_drops_heavy_burst () =
  let s = LS.create (star_graph ()) ~root:0 in
  ignore (LS.payments s);
  let st1 = LS.stats s in
  (* every leaf's direct link gets cheaper: repairing either entry would
     re-settle all 64 leaves, past the budget *)
  for x = 3 to 66 do
    LS.set_cost s x 0 9.0
  done;
  let b = LS.payments s in
  let st2 = LS.stats s in
  Alcotest.(check int) "only the tree repaired in place"
    (st1.LS.repaired_entries + 1) st2.LS.repaired_entries;
  Alcotest.(check int) "both touched caches dropped and refilled"
    (st1.LS.avoid_runs + 2) st2.LS.avoid_runs;
  check_link_ref "refilled caches match the oracle" s b

(* ---------------- region-only entries: the three outcomes ---------------- *)

(* Chains 3 -> 2 -> 1 -> 0 and 5 -> 4 -> 0; the burst re-prices the
   slack links 4 -> 1 and 1 -> 4, whose heads are children of the root:
   no relay's subtree holds them, and no tree label moves.  Every entry
   is kept with no repair or refill task. *)
let test_untouched_burst_keeps_entries () =
  let g =
    Digraph.create ~n:6
      ~links:
        [ (1, 0, 1.0); (2, 1, 1.0); (3, 2, 1.0); (4, 0, 1.0); (5, 4, 1.0);
          (4, 1, 50.0); (1, 4, 50.0) ]
  in
  let s = LS.create g ~root:0 in
  ignore (LS.payments s);
  let st1 = LS.stats s in
  LS.set_cost s 4 1 45.0;
  LS.set_cost s 1 4 55.0;
  let b = LS.payments s in
  let st2 = LS.stats s in
  Alcotest.(check int) "only the tree repaired" (st1.LS.repaired_entries + 1)
    st2.LS.repaired_entries;
  Alcotest.(check int) "no refill" st1.LS.avoid_runs st2.LS.avoid_runs;
  Alcotest.(check int) "all three relays reused" (st1.LS.avoid_reused + 3)
    st2.LS.avoid_reused;
  Alcotest.(check int) "no kernel task at all" st1.LS.tasks_executed
    st2.LS.tasks_executed;
  check_link_ref "payments match the oracle" s b

(* Node model.  Relay 1 serves 2 and the leaves 4..8; relay 10 serves 3.
   Avoiding 1, node 2 is reached through 3, whose tree label (via 10)
   lies outside subtree(1): raising 10's cost raises that boundary label
   and nothing else.  Entry 1 is repaired inside its subtree — cheaper
   than refilling its six nodes — and entry 10, whose subtree no change
   enters, is kept.  The shared tree is repaired too, and [repaired]
   counts it, as in the link model. *)
let test_boundary_rise_repaired_in_subtree () =
  let g =
    Graph.create
      ~costs:[| 0.0; 1.0; 3.0; 5.0; 1.0; 1.0; 1.0; 1.0; 1.0; 5.0; 1.0 |]
      ~edges:
        ([ (0, 1); (1, 2); (2, 3); (3, 10); (10, 0); (0, 9) ]
        @ List.concat_map (fun x -> [ (1, x); (9, x) ]) [ 4; 5; 6; 7; 8 ])
  in
  let s = NS.create g ~root:0 in
  ignore (NS.payments s);
  let st1 = NS.stats s in
  NS.set_cost s 10 2.0;
  let r = NS.payments s in
  let st2 = NS.stats s in
  Alcotest.(check int) "the tree and entry 1 repaired in place"
    (st1.NS.repaired_entries + 2) st2.NS.repaired_entries;
  Alcotest.(check int) "nothing refilled" st1.NS.avoid_runs st2.NS.avoid_runs;
  Alcotest.(check int) "one repair task" (st1.NS.tasks_executed + 1)
    st2.NS.tasks_executed;
  Alcotest.(check (option string)) "payments match the reference" None
    (node_ref_diff s r)

(* 5 forwards through 2 -> 1 -> 0 until its link to 2 rises past its
   detour 5 -> 4 -> 3 -> 0: it leaves subtrees 2 and 1 and joins 4 (its
   first child) and 3, whose chains meet only at the root.  Exactly the
   relays 1, 3 and 4 are refilled (2 is no relay any more); relay 6, on
   its own branch, is reused. *)
let test_reparent_refills_moved_relays () =
  let g =
    Digraph.create ~n:8
      ~links:
        [ (1, 0, 1.0); (2, 1, 1.0); (3, 0, 1.0); (4, 3, 1.0); (5, 2, 1.0);
          (5, 4, 1.5); (6, 0, 1.0); (7, 6, 1.0) ]
  in
  let s = LS.create g ~root:0 in
  ignore (LS.payments s);
  let st1 = LS.stats s in
  LS.set_cost s 5 2 2.0;
  let b = LS.payments s in
  let st2 = LS.stats s in
  Alcotest.(check int) "relays 1, 3 and 4 refilled" (st1.LS.avoid_runs + 3)
    st2.LS.avoid_runs;
  Alcotest.(check int) "relay 6 reused" (st1.LS.avoid_reused + 1)
    st2.LS.avoid_reused;
  Alcotest.(check int) "only the tree repaired" (st1.LS.repaired_entries + 1)
    st2.LS.repaired_entries;
  check_link_ref "payments match the oracle" s b

(* Inserting forward link 3 -> 2 gives node 3 a second root-side path of
   bit-identical cost 2.0 with a different next hop: from-scratch
   settlement order decides the tree parent, so the repair must detect
   the tie and fall back to a full Dijkstra — and the payments must
   still match the oracle. *)
let test_tie_triggers_fallback () =
  let g =
    Digraph.create ~n:4 ~links:[ (1, 0, 1.0); (3, 1, 1.0); (2, 0, 1.0) ]
  in
  let s = LS.create g ~root:0 in
  ignore (LS.payments s);
  let st1 = LS.stats s in
  LS.set_cost s 3 2 1.0;
  let b = LS.payments s in
  let st2 = LS.stats s in
  Alcotest.(check int) "tie detected: one repair fell back"
    (st1.LS.fallback_recomputes + 1) st2.LS.fallback_recomputes;
  Alcotest.(check int) "the fallback recomputed the shared tree"
    (st1.LS.spt_runs + 1) st2.LS.spt_runs;
  check_link_ref "payments still match the oracle after fallback" s b

(* Chain 2 -> 1 -> 0: relay 1 is a monopoly (cut vertex), so its payment
   is unbounded — until an alternate route appears. *)
let test_cut_vertex_tracking () =
  let g = Digraph.create ~n:3 ~links:[ (2, 1, 1.0); (1, 0, 1.0) ] in
  let s = LS.create g ~root:0 in
  let b = LS.payments s in
  (match b.LS.results.(2) with
  | Some o ->
    Alcotest.(check (array int)) "path 2 -> 1 -> 0" [| 2; 1; 0 |] o.LS.path;
    check_exact "monopoly relay is paid infinity" infinity o.LS.relay_pay.(0);
    check_exact "so is the source's charge" infinity o.LS.charge
  | None -> Alcotest.fail "source 2 should be served");
  Alcotest.(check (list int)) "relay 1 reported unbounded" [ 1 ]
    (LS.unbounded_relays s);
  LS.set_cost s 2 0 10.0;
  let b = LS.payments s in
  (match b.LS.results.(2) with
  | Some o ->
    (* used link 1 + (avoidance 10 - lcp 2) *)
    check_exact "alternate route bounds the payment" 9.0 o.LS.relay_pay.(0);
    check_exact "and the charge" 9.0 o.LS.charge
  | None -> Alcotest.fail "source 2 should be served");
  Alcotest.(check (list int)) "no unbounded relays left" []
    (LS.unbounded_relays s)

(* Leave + rejoin with the same links must restore the original batch
   bit for bit — and [rejoin_node] must enforce its preconditions. *)
let test_leave_rejoin_roundtrip () =
  let g =
    Digraph.create ~n:5
      ~links:[ (1, 0, 1.0); (2, 1, 1.0); (3, 2, 1.0); (4, 0, 1.0); (4, 1, 50.0) ]
  in
  let s = LS.create g ~root:0 in
  let before = LS.payments s in
  LS.remove_node s 3;
  let gone = LS.payments s in
  Alcotest.(check bool) "left node unserved" true (gone.LS.results.(3) = None);
  LS.rejoin_node s 3 ~out:[ (2, 1.0) ] ~inn:[];
  let after = LS.payments s in
  Alcotest.(check bool) "rejoin restores the batch bitwise" true
    (link_batches_equal before after);
  Alcotest.check_raises "rejoining a connected node is refused"
    (Invalid_argument "Link_session.rejoin_node: node is not isolated")
    (fun () -> LS.rejoin_node s 3 ~out:[ (2, 1.0) ] ~inn:[]);
  Alcotest.check_raises "rejoining the root is refused"
    (Invalid_argument "Link_session.rejoin_node: cannot rejoin the root")
    (fun () -> LS.rejoin_node s 0 ~out:[] ~inn:[]);
  Alcotest.check_raises "out-of-range id is refused"
    (Invalid_argument "Link_session.rejoin_node: out of range") (fun () ->
      LS.rejoin_node s 9 ~out:[] ~inn:[])

(* ---------------- coalesced deferred invalidation ---------------- *)

let burst_graph () =
  Digraph.create ~n:5
    ~links:[ (1, 0, 1.0); (2, 1, 1.0); (3, 2, 1.0); (4, 0, 1.0); (4, 1, 50.0) ]

(* A burst of k cost edits before the next payments must fold into
   EXACTLY one invalidation pass — the server's coalescing contract —
   and still match the from-scratch oracle bit for bit. *)
let test_coalesced_burst () =
  let s = LS.create (burst_graph ()) ~root:0 in
  ignore (LS.payments s);
  let st0 = LS.stats s in
  LS.set_cost s 4 1 45.0;
  LS.set_cost s 4 1 40.0;
  LS.set_cost s 3 2 1.5;
  let st1 = LS.stats s in
  Alcotest.(check int) "no pass while the burst buffers" st0.LS.inval_passes
    st1.LS.inval_passes;
  let b = LS.payments s in
  let st2 = LS.stats s in
  Alcotest.(check int) "3-edit burst = one invalidation pass"
    (st0.LS.inval_passes + 1) st2.LS.inval_passes;
  Alcotest.(check int) "every burst edit counted coalesced"
    (st0.LS.coalesced_edits + 3) st2.LS.coalesced_edits;
  check_link_ref "coalesced burst still matches the oracle" s b

(* A burst that nets out to nothing (edit then revert, [Float.equal])
   must cost zero passes and leave the batch bit-identical. *)
let test_reverted_burst () =
  let s = LS.create (burst_graph ()) ~root:0 in
  let before = LS.payments s in
  let st0 = LS.stats s in
  LS.set_cost s 4 1 45.0;
  LS.set_cost s 4 1 50.0;
  let after = LS.payments s in
  let st1 = LS.stats s in
  Alcotest.(check int) "reverted burst = zero invalidation passes"
    st0.LS.inval_passes st1.LS.inval_passes;
  Alcotest.(check int) "reverted edits still counted coalesced"
    (st0.LS.coalesced_edits + 2) st1.LS.coalesced_edits;
  Alcotest.(check bool) "reverted burst leaves the batch bitwise" true
    (link_batches_equal before after)

(* Explicit flush applies the pending pass immediately and is idempotent;
   payments after it adds no second pass. *)
let test_explicit_flush () =
  let s = LS.create (burst_graph ()) ~root:0 in
  ignore (LS.payments s);
  let st0 = LS.stats s in
  LS.set_cost s 4 1 45.0;
  LS.flush s;
  let st1 = LS.stats s in
  Alcotest.(check int) "flush performs the pass now" (st0.LS.inval_passes + 1)
    st1.LS.inval_passes;
  LS.flush s;
  ignore (LS.payments s);
  let st2 = LS.stats s in
  Alcotest.(check int) "empty flush and payments add no pass"
    st1.LS.inval_passes st2.LS.inval_passes

(* A join, leave or rejoin that is refused answers before the pending
   burst's flush: the counters are as they were, and the burst is
   flushed once, by the next payments. *)
let test_refused_structural_edits () =
  let s = LS.create (burst_graph ()) ~root:0 in
  ignore (LS.payments s);
  LS.set_cost s 4 1 45.0;
  let st0 = LS.stats s in
  let refused what f =
    match f () with
    | () -> Alcotest.failf "%s was accepted" what
    | exception Invalid_argument _ -> ()
  in
  refused "leave of the root" (fun () -> LS.remove_node s 0);
  refused "leave out of range" (fun () -> LS.remove_node s 9);
  refused "join to an endpoint out of range" (fun () ->
      ignore (LS.add_node s ~out:[ (7, 1.0) ] ~inn:[]));
  refused "rejoin of a linked node" (fun () ->
      LS.rejoin_node s 3 ~out:[ (2, 1.0) ] ~inn:[]);
  Alcotest.(check bool) "refused edits leave the counters" true (LS.stats s = st0);
  let b = LS.payments s in
  Alcotest.(check int) "the burst is flushed once, by the payments"
    (st0.LS.inval_passes + 1) (LS.stats s).LS.inval_passes;
  check_link_ref "payments match the oracle" s b

let node_burst_graph () =
  Graph.create
    ~costs:[| 1.0; 2.0; 3.0; 2.0; 1.0 |]
    ~edges:[ (1, 0); (2, 1); (3, 2); (4, 0); (4, 1) ]

(* A session over the node model's view reads relay [k]'s cost off the
   links into [k], so it refuses, before any change, every edit that
   could give them different weights (a single link, a join, a rejoin)
   and a malformed declaration; a link-model session refuses a node
   declaration.  Declarations and leaves keep the payments the node
   reference's. *)
let test_node_model_refuses_link_edits () =
  let g = node_burst_graph () in
  let s = LS.of_node_model g ~root:0 in
  ignore (LS.payments s);
  LS.set_node_cost s 2 4.0;
  LS.remove_node s 3;
  let st0 = LS.stats s and v0 = LS.version s in
  let refused what f =
    match f () with
    | () -> Alcotest.failf "%s was accepted" what
    | exception Invalid_argument _ -> ()
  in
  refused "a single link edit" (fun () -> LS.set_cost s 1 2 9.0);
  refused "a join" (fun () -> ignore (LS.add_node s ~out:[ (0, 0.0) ] ~inn:[ (0, 1.0) ]));
  refused "a rejoin" (fun () -> LS.rejoin_node s 3 ~out:[ (2, 4.0) ] ~inn:[ (2, 2.0) ]);
  refused "a negative cost" (fun () -> LS.set_node_cost s 2 (-1.0));
  refused "an infinite cost" (fun () -> LS.set_node_cost s 2 infinity);
  refused "a NaN cost" (fun () -> LS.set_node_cost s 2 Float.nan);
  refused "a node out of range" (fun () -> LS.set_node_cost s 5 1.0);
  refused "a node declaration on a link-model session" (fun () ->
      LS.set_node_cost (LS.create (burst_graph ()) ~root:0) 1 2.0);
  Alcotest.(check bool) "refused edits leave the counters" true (LS.stats s = st0);
  Alcotest.(check int) "refused edits leave the version" v0 (LS.version s);
  let expected = Payment_ref.node (Graph.remove_node (Graph.with_cost g 2 4.0) 3) ~root:0 in
  Alcotest.(check (option string)) "payments match the node reference" None
    (Test_util.ref_diff expected
       (fun (o : LS.outcome) ->
         (o.LS.src, o.LS.path, o.LS.lcp_cost, None, o.LS.relay_pay, o.LS.charge))
       (LS.payments s).LS.results)

(* A declaration on the access point moves no link of the view: it is
   counted, bumps the version and leaves the tree, its index and every
   entry as they were. *)
let test_node_root_declaration_moves_no_link () =
  let s = NS.create (node_burst_graph ()) ~root:0 in
  ignore (NS.payments s);
  let st0 = NS.stats s and idx0 = NS.tree_index s and v0 = NS.version s in
  NS.set_cost s 0 7.0;
  NS.set_cost s 0 0.5;
  let b = NS.payments s in
  let st1 = NS.stats s in
  Alcotest.(check int) "both declarations counted" (st0.NS.edits + 2) st1.NS.edits;
  Alcotest.(check int) "the version bumps" (v0 + 2) (NS.version s);
  Alcotest.(check int) "no invalidation pass" st0.NS.inval_passes st1.NS.inval_passes;
  Alcotest.(check int) "no tree run" st0.NS.spt_runs st1.NS.spt_runs;
  Alcotest.(check int) "no refill" st0.NS.avoid_runs st1.NS.avoid_runs;
  Alcotest.(check bool) "the tree index is kept" true (NS.tree_index s == idx0);
  Alcotest.(check (option string)) "payments match the reference" None (node_ref_diff s b)

let test_node_coalesced_burst () =
  let s = NS.create (node_burst_graph ()) ~root:0 in
  ignore (NS.payments s);
  let st0 = NS.stats s in
  NS.set_cost s 1 5.0;
  NS.set_cost s 2 4.0;
  NS.set_cost s 1 6.0;
  let b = NS.payments s in
  let st1 = NS.stats s in
  Alcotest.(check int) "node burst = one invalidation pass"
    (st0.NS.inval_passes + 1) st1.NS.inval_passes;
  Alcotest.(check int) "node burst edits counted coalesced"
    (st0.NS.coalesced_edits + 3) st1.NS.coalesced_edits;
  Alcotest.(check (option string)) "node burst still matches the reference"
    None (node_ref_diff s b)

(* ---------------- payment sums ---------------- *)

(* [sum_payments] adds left to right from [0.0] through an unboxed
   accumulator; it must agree with the polymorphic fold bit for bit,
   [infinity] (monopoly relays), [-0.0] and mixed magnitudes included. *)
let sum_matches_fold seed =
  let rng = Rng.create seed in
  let special =
    [| infinity; -0.0; 0.0; 5e-324; 1e-300; 1e-9; 0.1; 1.0; 3.75; 1e16; 1e300 |]
  in
  let a =
    Array.init (Rng.int rng 200) (fun _ ->
        if Rng.bernoulli rng 0.3 then special.(Rng.int rng (Array.length special))
        else Rng.float_range rng 0.0 10.0 *. (10.0 ** float_of_int (Rng.int rng 30 - 15)))
  in
  Int64.equal
    (Int64.bits_of_float (Wnet_session.sum_payments a))
    (Int64.bits_of_float (Array.fold_left ( +. ) 0.0 a))

(* ---------------- payment assembly: the relay-major pass ---------------- *)

(* A charge, bit for bit, against the dense per-node vector built in the
   test from the outcome's [path] and [relay_pay], folded left from
   [0.0]: the sum the relay-major pass (and single-pair runs) must
   reproduce without building that vector. *)
let charge_is_dense_fold ~what ~n path relay_pay charge =
  let want = Test_util.dense_charge ~n path relay_pay in
  if not (Int64.equal (Int64.bits_of_float charge) (Int64.bits_of_float want))
  then
    QCheck2.Test.fail_reportf "%s: charge %h, dense fold %h" what charge want

(* Both engines, sequential and on a 3-domain pool, through random edit
   bursts on sparse graphs (cut relays and unreached sources occur):
   every outcome's charge is its dense fold.  At the end, the pay view
   of a session opened on the edited graph ({!Wnet_session.S.pay},
   written from the pass without outcomes) carries the same paths and
   charges as the edited session's outcomes. *)
let session_charges_prop model seed =
  let rng = Rng.create seed in
  let nops = 4 + Rng.int rng 40 in
  let ends = burst_ends rng nops in
  let oseed = seed lxor 0x3c6ef372 in
  Par.with_pool ~domains:3 (fun pool ->
      let check_served label (pay : Wnet_session.pay) outcomes =
        let want =
          List.filter_map
            (Option.map (fun (src, path, charge) ->
                 (src, Array.to_list path, Int64.bits_of_float charge)))
            (Array.to_list outcomes)
        in
        let got =
          List.init pay.Wnet_session.count (fun i ->
              let lo = pay.Wnet_session.off.(i) in
              ( pay.Wnet_session.src.(i),
                Array.to_list
                  (Array.sub pay.Wnet_session.hops lo
                     (pay.Wnet_session.off.(i + 1) - lo)),
                Int64.bits_of_float pay.Wnet_session.charge.(i) ))
        in
        if got <> want then
          QCheck2.Test.fail_reportf "%s: served summary differs from the outcomes"
            label
      in
      match model with
      | `Link ->
        let g = random_digraph rng ~n:(8 + Rng.int rng 21) in
        let replicas =
          List.map (fun pool -> (LS.create ~pool g ~root:0, Rng.create oseed))
            [ Par.sequential; pool ]
        in
        for i = 0 to nops do
          List.iter (fun (s, r) -> if i > 0 then apply_random_op r s) replicas;
          if ends.(i) then
            List.iter
              (fun (s, _) ->
                let b = LS.payments s in
                Array.iter
                  (Option.iter (fun (o : LS.outcome) ->
                       charge_is_dense_fold
                         ~what:(Printf.sprintf "op %d src %d" i o.LS.src)
                         ~n:(LS.n s) o.LS.path o.LS.relay_pay o.LS.charge))
                  b.LS.results)
              replicas
        done;
        List.iter
          (fun (s, _) ->
            let (module S : Wnet_session.S) =
              Wnet_session.make ~pool ~root:0 (`Link (LS.snapshot s))
            in
            check_served "link" (S.pay ())
              (Array.map
                 (Option.map (fun (o : LS.outcome) -> (o.LS.src, o.LS.path, o.LS.charge)))
                 (LS.payments s).LS.results))
          replicas;
        true
      | `Node ->
        let g =
          if Rng.bernoulli rng 0.5 then Test_util.random_ring_graph rng
          else Test_util.random_sparse_graph rng
        in
        let replicas =
          List.map (fun pool -> (NS.create ~pool g ~root:0, Rng.create oseed))
            [ Par.sequential; pool ]
        in
        for i = 0 to nops do
          List.iter (fun (s, r) -> if i > 0 then apply_random_node_op r s) replicas;
          if ends.(i) then
            List.iter
              (fun (s, _) ->
                Array.iter
                  (Option.iter (fun (o : NS.outcome) ->
                       charge_is_dense_fold
                         ~what:(Printf.sprintf "op %d src %d" i o.NS.src)
                         ~n:(NS.n s) o.NS.path o.NS.relay_pay o.NS.charge))
                  (NS.payments s))
              replicas
        done;
        List.iter
          (fun (s, _) ->
            let (module S : Wnet_session.S) =
              Wnet_session.make ~pool ~root:0 (`Node (NS.graph s))
            in
            check_served "node" (S.pay ())
              (Array.map
                 (Option.map (fun (o : NS.outcome) -> (o.NS.src, o.NS.path, o.NS.charge)))
                 (NS.payments s)))
          replicas;
        true)

(* The one-shot wrappers: [Link_cost] batches and its single-pair [run],
   [Unicast] batches and its single-pair runs under both algorithms —
   every charge is its outcome's dense fold. *)
let one_shot_charges_prop seed =
  let rng = Rng.create seed in
  let n = 6 + Rng.int rng 20 in
  let g = random_digraph rng ~n in
  let check_link what (r : LC.t) =
    charge_is_dense_fold ~what ~n r.LC.path r.LC.relay_pay r.LC.charge
  in
  Array.iter (Option.iter (check_link "link batch"))
    (LC.all_to_root g ~root:0).LC.results;
  for src = 1 to n - 1 do
    Option.iter (check_link "link run") (LC.run g ~src ~dst:0)
  done;
  let ng = Test_util.random_sparse_graph rng in
  let nn = Graph.n ng in
  let check_node what (r : U.t) =
    charge_is_dense_fold ~what ~n:nn r.U.path r.U.relay_pay r.U.charge
  in
  Array.iter (Option.iter (check_node "node batch")) (U.all_to_root ng ~root:0);
  for src = 1 to nn - 1 do
    Option.iter (check_node "naive run") (U.run ~algo:U.Naive ng ~src ~dst:0);
    if Graph.all_positive_costs ng then
      Option.iter (check_node "fast run") (U.run ~algo:U.Fast ng ~src ~dst:0)
  done;
  true

(* The payment table ([payments]: one walk up each source's chain, own
   costs read from a flat array) against the served pay view (written
   from the charges alone), both engines, at pools of 1 and 3 domains,
   after every random burst on sparse graphs, where cut relays and
   unreached sources occur.  Each packaged session gets the same deltas
   as its engine twin.  Every source's path is its slice of the view,
   and its charge is the view's and the dense fold of its relay
   payments, bit for bit. *)
let table_matches_view_prop model seed =
  let rng = Rng.create seed in
  let nops = 4 + Rng.int rng 40 in
  let ends = burst_ends rng nops in
  let oseed = seed lxor 0x1b873593 in
  let check label ~n (pay : Wnet_session.pay) rows =
    if pay.Wnet_session.count <> List.length rows then
      QCheck2.Test.fail_reportf "%s: %d sources in the view, %d in the table" label
        pay.Wnet_session.count (List.length rows);
    List.iteri
      (fun i (src, path, relay_pay, charge) ->
        let lo = pay.Wnet_session.off.(i) in
        let slice = Array.sub pay.Wnet_session.hops lo (pay.Wnet_session.off.(i + 1) - lo) in
        if pay.Wnet_session.src.(i) <> src || slice <> path then
          QCheck2.Test.fail_reportf "%s: src %d: path differs from the view" label src;
        if not (Int64.equal (Int64.bits_of_float charge)
                  (Int64.bits_of_float pay.Wnet_session.charge.(i)))
        then
          QCheck2.Test.fail_reportf "%s: src %d: charge %h, view %h" label src charge
            pay.Wnet_session.charge.(i);
        charge_is_dense_fold ~what:(Printf.sprintf "%s: src %d" label src) ~n path
          relay_pay charge)
      rows
  in
  Par.with_pool ~domains:3 (fun pool ->
      match model with
      | `Link ->
        let g = random_digraph rng ~n:(8 + Rng.int rng 21) in
        List.iter
          (fun pool ->
            let s = LS.create ~pool g ~root:0 in
            let (module S : Wnet_session.S) = Wnet_session.make ~pool ~root:0 (`Link g) in
            let r = Rng.create oseed in
            for i = 0 to nops do
              if i > 0 then Option.iter (fun d -> apply_link_delta s d; ignore (S.apply d)) (random_link_delta r s);
              if ends.(i) then
                check (Printf.sprintf "link, %d domains, op %d" (Par.size pool) i) ~n:(LS.n s)
                  (S.pay ())
                  (List.filter_map
                     (Option.map (fun (o : LS.outcome) ->
                          (o.LS.src, o.LS.path, o.LS.relay_pay, o.LS.charge)))
                     (Array.to_list (LS.payments s).LS.results))
            done)
          [ Par.sequential; pool ];
        true
      | `Node ->
        let g =
          if Rng.bernoulli rng 0.5 then Test_util.random_ring_graph rng
          else Test_util.random_sparse_graph rng
        in
        List.iter
          (fun pool ->
            let s = NS.create ~pool g ~root:0 in
            let (module S : Wnet_session.S) = Wnet_session.make ~pool ~root:0 (`Node g) in
            let r = Rng.create oseed in
            for i = 0 to nops do
              if i > 0 then Option.iter (fun d -> apply_node_delta s d; ignore (S.apply d)) (random_node_delta r s);
              if ends.(i) then
                check (Printf.sprintf "node, %d domains, op %d" (Par.size pool) i) ~n:(NS.n s)
                  (S.pay ())
                  (List.filter_map
                     (Option.map (fun (o : NS.outcome) ->
                          (o.NS.src, o.NS.path, o.NS.relay_pay, o.NS.charge)))
                     (Array.to_list (NS.payments s)))
            done)
          [ Par.sequential; pool ];
        true)

(* ---------------- pool plumbing the sessions rely on ---------------- *)

let test_map_array_pooled () =
  Par.with_pool ~domains:3 (fun pool ->
      let a = Array.init 90 (fun i -> i) in
      let expect = Array.map (fun x -> 2 * x) a in
      let states = Array.init (Par.size pool) (fun _ -> ref 0) in
      let got = Par.map_array_pooled pool ~states (fun st x -> incr st; 2 * x) a in
      Alcotest.(check bool) "pooled states give the plain map" true
        (got = expect);
      Alcotest.(check int) "every element touched exactly once" 90
        (Array.fold_left (fun acc st -> acc + !st) 0 states);
      Alcotest.check_raises "too few states are refused"
        (Invalid_argument
           "Wnet_par.map_array_pooled: need one state per participant")
        (fun () ->
          ignore (Par.map_array_pooled pool ~states:[| ref 0 |] (fun _ x -> x) a)))

let suite =
  [
    Alcotest.test_case "digraph in-place mutation" `Quick test_digraph_mutation;
    Alcotest.test_case "slack edit keeps caches + memoization" `Quick
      test_selective_invalidation;
    Alcotest.test_case "flush policy repairs a one-edit burst" `Quick
      test_policy_repairs_light_burst;
    Alcotest.test_case "flush policy drops a 64-edit burst" `Quick
      test_policy_drops_heavy_burst;
    Alcotest.test_case "untouched burst keeps every entry, no task" `Quick
      test_untouched_burst_keeps_entries;
    Alcotest.test_case "boundary rise repaired inside the subtree" `Quick
      test_boundary_rise_repaired_in_subtree;
    Alcotest.test_case "reparent refills exactly the moved relays" `Quick
      test_reparent_refills_moved_relays;
    Alcotest.test_case "bit-equal tie triggers repair fallback" `Quick
      test_tie_triggers_fallback;
    Alcotest.test_case "cut-vertex tracking across edits" `Quick
      test_cut_vertex_tracking;
    Alcotest.test_case "leave/rejoin round-trip is bitwise" `Quick
      test_leave_rejoin_roundtrip;
    Alcotest.test_case "coalesced burst = one invalidation pass" `Quick
      test_coalesced_burst;
    Alcotest.test_case "reverted burst = zero invalidation passes" `Quick
      test_reverted_burst;
    Alcotest.test_case "explicit flush is immediate and idempotent" `Quick
      test_explicit_flush;
    Alcotest.test_case "node model coalesces bursts too" `Quick
      test_node_coalesced_burst;
    Alcotest.test_case "refused join, leave and rejoin keep the burst" `Quick
      test_refused_structural_edits;
    Alcotest.test_case "node-model session refuses link edits" `Quick
      test_node_model_refuses_link_edits;
    Alcotest.test_case "access-point declaration moves no link" `Quick
      test_node_root_declaration_moves_no_link;
    Alcotest.test_case "map_array_pooled caller-owned states" `Quick
      test_map_array_pooled;
    Test_util.qcheck_case ~count:200 "sum_payments = left fold (bits)"
      Test_util.seed_gen sum_matches_fold;
    Test_util.qcheck_case ~count:60
      "link session pools 1/3: charges = dense fold (bits)" Test_util.seed_gen
      (session_charges_prop `Link);
    Test_util.qcheck_case ~count:60
      "node session pools 1/3: charges = dense fold (bits)" Test_util.seed_gen
      (session_charges_prop `Node);
    Test_util.qcheck_case ~count:100
      "Link_cost and Unicast charges = dense fold (bits)" Test_util.seed_gen
      one_shot_charges_prop;
    Test_util.qcheck_case ~count:40
      "link payment table = pay view, pools 1/3 (bits)" Test_util.seed_gen
      (table_matches_view_prop `Link);
    Test_util.qcheck_case ~count:40
      "node payment table = pay view, pools 1/3 (bits)" Test_util.seed_gen
      (table_matches_view_prop `Node);
    Test_util.qcheck_case ~count:60
      "link session: random edit sequences = reference (bits)"
      Test_util.seed_gen link_equiv_prop;
    Test_util.qcheck_case ~count:60
      "node session: random edit sequences = reference (bits)"
      Test_util.seed_gen node_equiv_prop;
    Test_util.qcheck_case ~count:30
      "link session pools 1/3: parent-keeping bursts = reference (bits)"
      Test_util.seed_gen link_kept_prop;
    Test_util.qcheck_case ~count:30
      "node session pools 1/3: parent-keeping bursts = reference (bits)"
      Test_util.seed_gen node_kept_prop;
  ]
