(* The CSR tentpole's contracts (ISSUE: CSR graph kernels):

   - the flat views are semantically the boxed accessors — [Digraph.csr]
     must agree with [out_links]/[weight] after ANY interleaving of
     in-place weight edits, node growth, and detachment (the in-place
     maintenance and the lazy rebuild must be indistinguishable);
   - the CSR Dijkstra kernels (ban mask, key-only pops, scratch-owned
     result) are [Float.equal]-identical to the boxed closure runs they
     replace, which stay in the tree as the differential oracle;
   - whole payment batches come out bit-identical whichever kernel the
     session fans out, at pool sizes 1 and 3. *)

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

(* ---------------- CSR kernels ≡ boxed closure runs ---------------- *)

let link_kernel_prop seed =
  let rng = Rng.create seed in
  let n = 4 + Rng.int rng 25 in
  let g = random_digraph rng ~n in
  let scratch = Dijkstra.make_scratch n in
  let oracle = Dijkstra.make_scratch n in
  for _ = 1 to 5 do
    let source = Rng.int rng n in
    let avoid =
      let k = Rng.int rng n in
      if k = source then -1 else k
    in
    let expect =
      if avoid < 0 then Dijkstra.link_weighted_dist oracle g source
      else
        Dijkstra.link_weighted_dist oracle ~forbidden:(fun v -> v = avoid) g
          source
    in
    let got = Dijkstra.link_weighted_dist_csr scratch ~avoid g source in
    if not (floats_equal got expect) then
      QCheck2.Test.fail_reportf "CSR link kernel diverged from boxed oracle";
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
  let oracle = Dijkstra.make_scratch n in
  for _ = 1 to 5 do
    let source = Rng.int rng n in
    let avoid =
      let k = Rng.int rng n in
      if k = source then -1 else k
    in
    let expect =
      if avoid < 0 then Dijkstra.node_weighted_dist oracle g ~source
      else
        Dijkstra.node_weighted_dist oracle ~forbidden:(fun v -> v = avoid) g
          ~source
    in
    let got = Dijkstra.node_weighted_dist_csr scratch ~avoid g ~source in
    if not (floats_equal got expect) then
      QCheck2.Test.fail_reportf "CSR node kernel diverged from boxed oracle"
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
    let slow = Avoid.avoiding_cost g ~src ~dst ~avoid in
    let fast = Avoid.avoiding_cost ~scratch g ~src ~dst ~avoid in
    Float.equal slow fast
    && not (Bytes.exists (fun c -> c <> '\000') (Dijkstra.ban_mask scratch))
  end

(* ---------------- sessions: Csr vs Boxed payments ---------------- *)

module LS = Wnet_session.Link_session
module LC = Wnet_core.Link_cost
module U = Wnet_core.Unicast

let link_batch_equal (a : LC.batch) (b : LC.batch) =
  a.LC.root = b.LC.root
  && floats_equal a.LC.to_root_dist b.LC.to_root_dist
  && Array.for_all2
       (fun x y ->
         match (x, y) with
         | None, None -> true
         | Some (x : LC.t), Some (y : LC.t) ->
           x.LC.path = y.LC.path
           && Float.equal x.LC.lcp_cost y.LC.lcp_cost
           && floats_equal x.LC.relay_pay y.LC.relay_pay
           && Float.equal x.LC.charge y.LC.charge
         | _ -> false)
       a.LC.results b.LC.results

let link_session_kernel_prop seed =
  let rng = Rng.create seed in
  let n = 6 + Rng.int rng 19 in
  let g = random_digraph rng ~n in
  Wnet_par.with_pool ~domains:3 (fun pool ->
      let batches =
        List.map
          (fun (pool, kernel) ->
            match pool with
            | None -> LC.all_to_root ~kernel g ~root:0
            | Some pool -> LC.all_to_root ~pool ~kernel g ~root:0)
          [ (None, `Csr); (None, `Boxed); (Some pool, `Csr); (Some pool, `Boxed) ]
      in
      match batches with
      | b :: rest ->
        if not (List.for_all (link_batch_equal b) rest) then
          QCheck2.Test.fail_reportf
            "link payments differ across kernels/pool sizes";
        true
      | [] -> false)

let node_session_kernel_prop seed =
  let rng = Rng.create seed in
  let g = Test_util.random_ring_graph rng in
  Wnet_par.with_pool ~domains:3 (fun pool ->
      let outcomes_equal a b =
        Array.for_all2
          (fun x y ->
            match (x, y) with
            | None, None -> true
            | Some (x : U.t), Some (y : U.t) ->
              x.U.path = y.U.path
              && Float.equal x.U.lcp_cost y.U.lcp_cost
              && floats_equal x.U.relay_pay y.U.relay_pay
           && Float.equal x.U.charge y.U.charge
            | _ -> false)
          a b
      in
      let base = U.all_to_root ~kernel:`Csr g ~root:0 in
      List.for_all
        (fun r -> outcomes_equal base r)
        [
          U.all_to_root ~kernel:`Boxed g ~root:0;
          U.all_to_root ~pool ~kernel:`Csr g ~root:0;
          U.all_to_root ~pool ~kernel:`Boxed g ~root:0;
        ])

(* Edited sessions: the kernel choice must stay invisible through a
   burst of edits (cache repair fills misses with whichever kernel). *)
let link_session_edit_kernel_prop seed =
  let rng = Rng.create seed in
  let n = 6 + Rng.int rng 15 in
  let g = random_digraph rng ~n in
  let s_csr = LS.create g ~root:0 in
  let s_box = LS.create ~kernel:`Boxed g ~root:0 in
  let batches_equal () =
    let a = LS.payments s_csr and b = LS.payments s_box in
    floats_equal a.LS.to_root_dist b.LS.to_root_dist
    && Array.for_all2
         (fun x y ->
           match (x, y) with
           | None, None -> true
           | Some (x : LS.outcome), Some (y : LS.outcome) ->
             x.LS.path = y.LS.path && floats_equal x.LS.relay_pay y.LS.relay_pay
           && Float.equal x.LS.charge y.LS.charge
           | _ -> false)
         a.LS.results b.LS.results
  in
  if not (batches_equal ()) then
    QCheck2.Test.fail_reportf "initial batches differ";
  for _ = 1 to 8 do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then begin
      let w =
        if Rng.bernoulli rng 0.2 then infinity
        else Rng.float_range rng 0.5 10.0
      in
      LS.set_cost s_csr u v w;
      LS.set_cost s_box u v w
    end;
    if not (batches_equal ()) then
      QCheck2.Test.fail_reportf "batches diverged after edit"
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
    Test_util.qcheck_case ~count:60 "link CSR kernel = boxed oracle"
      Test_util.seed_gen link_kernel_prop;
    Test_util.qcheck_case ~count:60 "node CSR kernel = boxed oracle"
      Test_util.seed_gen node_kernel_prop;
    Alcotest.test_case "scratch kernels return internal array" `Quick
      test_scratch_result_is_internal;
    Alcotest.test_case "banned source rejected" `Quick
      test_banned_source_rejected;
    Test_util.qcheck_case ~count:60 "avoiding_cost scratch = tree run"
      Test_util.seed_gen avoiding_cost_prop;
    Test_util.qcheck_case ~count:20 "link payments: kernels x pools identical"
      Test_util.seed_gen link_session_kernel_prop;
    Test_util.qcheck_case ~count:20 "node payments: kernels x pools identical"
      Test_util.seed_gen node_session_kernel_prop;
    Test_util.qcheck_case ~count:20 "link sessions: kernels agree under edits"
      Test_util.seed_gen link_session_edit_kernel_prop;
  ]
