(* The CSR views and kernels:

   - the flat views are semantically the boxed accessors — [Digraph.csr]
     must agree with [out_links]/[weight] after ANY interleaving of
     in-place weight edits, node growth, and detachment (the in-place
     maintenance and the lazy rebuild must be indistinguishable);
   - the CSR Dijkstra kernels (ban mask, key-only pops, scratch-owned
     result) are [Float.equal]-identical to {!Payment_ref}'s searches,
     and a call they refuse leaves the ban mask as it was;
   - a link session under edits pays what the reference pays. *)

open Wnet_graph
module Rng = Wnet_prng.Rng

let floats_equal a b =
  Array.length a = Array.length b && Array.for_all2 Float.equal a b

(* ---------------- view ≡ boxed accessors ---------------- *)

(* One structural+weight fuzz: does the CSR view agree with the boxed
   adjacency, row by row, slot by slot? *)
let digraph_csr_agrees g =
  let n = Digraph.n g in
  let { Digraph.row_off; col; wgt } = Digraph.csr g in
  Array.length row_off = n + 1
  && row_off.(0) = 0
  && row_off.(n) = Digraph.m g
  && begin
       let ok = ref true in
       for u = 0 to n - 1 do
         let row = Digraph.out_links g u in
         if row_off.(u + 1) - row_off.(u) <> Array.length row then ok := false
         else
           Array.iteri
             (fun i (v, w) ->
               let s = row_off.(u) + i in
               if col.(s) <> v || not (Float.equal wgt.(s) w) then ok := false)
             row
       done;
       !ok
     end

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

let digraph_edit_prop seed =
  let rng = Rng.create seed in
  let n = 4 + Rng.int rng 17 in
  let g = random_digraph rng ~n in
  (* Interleave reads with edits: a [csr] call between edits exercises
     the in-place weight maintenance on a LIVE cache, not just the lazy
     rebuild at the end. *)
  for _ = 1 to 30 do
    let nn = Digraph.n g in
    (match Rng.int rng 8 with
    | 0 | 1 | 2 | 3 ->
      (* weight set / insert / delete on a random pair *)
      let u = Rng.int rng nn and v = Rng.int rng nn in
      if u <> v then
        let w =
          if Rng.bernoulli rng 0.25 then infinity
          else Rng.float_range rng 0.5 10.0
        in
        Digraph.set_weight g u v w
    | 4 -> ignore (Digraph.add_node g)
    | 5 -> Digraph.detach_node g (Rng.int rng nn)
    | _ ->
      (* materialize the view so the next edit hits a valid cache *)
      ignore (Digraph.csr g));
    if not (digraph_csr_agrees g) then
      QCheck2.Test.fail_reportf "CSR view diverged from out_links/weight"
  done;
  true

let graph_csr_prop seed =
  let rng = Rng.create seed in
  let g = Test_util.random_ring_graph rng in
  let check g =
    let n = Graph.n g in
    let { Graph.row_off; col } = Graph.csr g in
    if row_off.(n) <> 2 * Graph.m g then
      QCheck2.Test.fail_reportf "row_off total <> 2m";
    for v = 0 to n - 1 do
      let row = Graph.neighbors g v in
      if
        row_off.(v + 1) - row_off.(v) <> Array.length row
        || not
             (Array.for_all Fun.id
                (Array.mapi (fun i w -> col.(row_off.(v) + i) = w) row))
      then QCheck2.Test.fail_reportf "CSR row %d diverged from neighbors" v
    done;
    if not (floats_equal (Graph.costs_view g) (Graph.costs g)) then
      QCheck2.Test.fail_reportf "costs_view diverged from costs"
  in
  check g;
  (* removal rebuilds the view; cost swaps share it *)
  check (Graph.remove_node g (Rng.int rng (Graph.n g)));
  check (Graph.with_cost g (Rng.int rng (Graph.n g)) 42.0);
  true

let egraph_csr_prop seed =
  let rng = Rng.create seed in
  let n = 4 + Rng.int rng 12 in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Rng.bernoulli rng 0.3 then
        edges := (u, v, Rng.float_range rng 0.5 10.0) :: !edges
    done
  done;
  let g = Egraph.create ~n ~edges:!edges in
  let { Egraph.row_off; ncol; ecol } = Egraph.csr g in
  for v = 0 to n - 1 do
    let row = Egraph.incident g v in
    if row_off.(v + 1) - row_off.(v) <> Array.length row then
      QCheck2.Test.fail_reportf "CSR row %d length diverged from incident" v;
    Array.iteri
      (fun i (nbr, e) ->
        let s = row_off.(v) + i in
        if ncol.(s) <> nbr || ecol.(s) <> e then
          QCheck2.Test.fail_reportf "CSR slot diverged from incident")
      row
  done;
  floats_equal (Egraph.weights_view g) (Egraph.weights g)

(* ---------------- CSR kernels ≡ the reference's searches ---------------- *)

let link_kernel_prop seed =
  let rng = Rng.create seed in
  let n = 4 + Rng.int rng 25 in
  let g = random_digraph rng ~n in
  let scratch = Dijkstra.make_scratch n in
  for _ = 1 to 5 do
    let source = Rng.int rng n in
    let avoid =
      let k = Rng.int rng n in
      if k = source then -1 else k
    in
    let expect = Payment_ref.link_dist ~avoid g ~source in
    let got = Dijkstra.link_weighted_dist_csr scratch ~avoid g source in
    if not (floats_equal got expect) then
      QCheck2.Test.fail_reportf "CSR link kernel diverged from the reference";
    (* the convenience wrapper must leave the ban mask clean *)
    if Bytes.exists (fun c -> c <> '\000') (Dijkstra.ban_mask scratch) then
      QCheck2.Test.fail_reportf "ban mask left dirty";
    (* a weight edit between runs must be visible through the cached view *)
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then Digraph.set_weight g u v (Rng.float_range rng 0.5 10.0)
  done;
  true

let node_kernel_prop seed =
  let rng = Rng.create seed in
  let g = Test_util.random_sparse_graph rng in
  let n = Graph.n g in
  let scratch = Dijkstra.make_scratch n in
  for _ = 1 to 5 do
    let source = Rng.int rng n in
    let avoid =
      let k = Rng.int rng n in
      if k = source then -1 else k
    in
    let expect = Payment_ref.node_dist ~avoid g ~source in
    let got = Dijkstra.node_weighted_dist_csr scratch ~avoid g ~source in
    if not (floats_equal got expect) then
      QCheck2.Test.fail_reportf "CSR node kernel diverged from the reference"
  done;
  true

let test_scratch_result_is_internal () =
  (* [*_scratch] returns the scratch's own array: capacity-sized, reused
     by the next run. *)
  let g = Digraph.create ~n:3 ~links:[ (0, 1, 1.0); (1, 2, 2.0) ] in
  let s = Dijkstra.make_scratch 8 in
  let d = Dijkstra.link_weighted_scratch s g 0 in
  Alcotest.(check int) "capacity-sized" 8 (Array.length d);
  Test_util.check_float "dist" 3.0 d.(2);
  let d' = Dijkstra.link_weighted_scratch s g 2 in
  Alcotest.(check bool) "same array reused" true (d == d');
  Test_util.check_float "overwritten" 0.0 d.(2)

let test_banned_source_rejected () =
  let g = Digraph.create ~n:2 ~links:[ (0, 1, 1.0) ] in
  let s = Dijkstra.make_scratch 2 in
  Bytes.set (Dijkstra.ban_mask s) 0 '\001';
  Alcotest.check_raises "banned source"
    (Invalid_argument "Dijkstra: source is forbidden") (fun () ->
      ignore (Dijkstra.link_weighted_scratch s g 0))

(* A refused [*_dist_csr] call must leave the ban mask as it found it.
   On 0 -> 1 -> 2 (weights 1, 1) plus 0 -> 2 (5), a byte left set for
   node 1 would make the next run from 0 read [0 inf 5]. *)
let test_refused_run_leaves_mask_clean () =
  let g = Digraph.create ~n:3 ~links:[ (0, 1, 1.0); (1, 2, 1.0); (0, 2, 5.0) ] in
  let s = Dijkstra.make_scratch 3 in
  let clean what =
    Alcotest.(check bool) (what ^ ": mask clean") false
      (Bytes.exists (fun c -> c <> '\000') (Dijkstra.ban_mask s));
    Alcotest.(check (array (float 0.0))) (what ^ ": next run exact") [| 0.0; 1.0; 2.0 |]
      (Dijkstra.link_weighted_dist_csr s g 0)
  in
  Alcotest.check_raises "avoid = source"
    (Invalid_argument "Dijkstra: source is forbidden") (fun () ->
      ignore (Dijkstra.link_weighted_dist_csr s ~avoid:1 g 1));
  clean "avoid = source";
  Alcotest.check_raises "source out of range"
    (Invalid_argument "Dijkstra: source out of range") (fun () ->
      ignore (Dijkstra.link_weighted_dist_csr s ~avoid:1 g 3));
  clean "source out of range";
  let big = Digraph.create ~n:4 ~links:[ (0, 1, 1.0) ] in
  Alcotest.check_raises "graph over capacity"
    (Invalid_argument "Dijkstra: graph exceeds scratch capacity") (fun () ->
      ignore (Dijkstra.link_weighted_dist_csr s ~avoid:1 big 0));
  clean "graph over capacity";
  let ng = Graph.create ~costs:[| 1.0; 1.0; 1.0 |] ~edges:[ (0, 1); (1, 2) ] in
  Alcotest.check_raises "node model, avoid = source"
    (Invalid_argument "Dijkstra: source is forbidden") (fun () ->
      ignore (Dijkstra.node_weighted_dist_csr s ~avoid:1 ng ~source:1));
  clean "node model"

let avoiding_cost_prop seed =
  let rng = Rng.create seed in
  let g = Test_util.random_sparse_graph rng in
  let n = Graph.n g in
  let scratch = Dijkstra.make_scratch n in
  let src = Rng.int rng n in
  let dst = (src + 1 + Rng.int rng (n - 1)) mod n in
  let avoid = Rng.int rng n in
  if avoid = src || avoid = dst then true
  else begin
    let tree_run = (Payment_ref.node_dist ~avoid g ~source:src).(dst) in
    let fast = Avoid.avoiding_cost scratch g ~src ~dst ~avoid in
    Float.equal tree_run fast
    && not (Bytes.exists (fun c -> c <> '\000') (Dijkstra.ban_mask scratch))
  end

(* ---------------- a link session under edits = the reference ---------------- *)

module LS = Wnet_session.Link_session

let link_session_edit_prop seed =
  let rng = Rng.create seed in
  let n = 6 + Rng.int rng 15 in
  let g = random_digraph rng ~n in
  let s = LS.create g ~root:0 in
  let agree what =
    Test_util.fail_on_diff what
      (Test_util.link_session_diff (LS.payments s)
         (Payment_ref.link (LS.snapshot s) ~root:0))
  in
  agree "initial batch";
  for i = 1 to 8 do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then
      LS.set_cost s u v
        (if Rng.bernoulli rng 0.2 then infinity else Rng.float_range rng 0.5 10.0);
    agree (Printf.sprintf "after edit %d" i)
  done;
  true

let suite =
  [
    Test_util.qcheck_case ~count:60 "digraph CSR = out_links under edits"
      Test_util.seed_gen digraph_edit_prop;
    Test_util.qcheck_case ~count:60 "graph CSR = neighbors"
      Test_util.seed_gen graph_csr_prop;
    Test_util.qcheck_case ~count:60 "egraph CSR = incident"
      Test_util.seed_gen egraph_csr_prop;
    Test_util.qcheck_case ~count:60 "link CSR kernel = reference"
      Test_util.seed_gen link_kernel_prop;
    Test_util.qcheck_case ~count:60 "node CSR kernel = reference"
      Test_util.seed_gen node_kernel_prop;
    Alcotest.test_case "scratch kernels return internal array" `Quick
      test_scratch_result_is_internal;
    Alcotest.test_case "banned source rejected" `Quick
      test_banned_source_rejected;
    Alcotest.test_case "refused run leaves the ban mask clean" `Quick
      test_refused_run_leaves_mask_clean;
    Test_util.qcheck_case ~count:60 "avoiding_cost scratch = tree run"
      Test_util.seed_gen avoiding_cost_prop;
    Test_util.qcheck_case ~count:20 "link session under edits = reference"
      Test_util.seed_gen link_session_edit_prop;
  ]
