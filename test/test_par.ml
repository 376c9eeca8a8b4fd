(* The determinism contract of the domain-parallel batch payment engine:
   whatever the pool size, every combinator and every batch mechanism
   must return the sequential answer bit for bit. *)

open Wnet_core
module Par = Wnet_par
module Rng = Wnet_prng.Rng

let exact =
  Alcotest.testable
    (fun ppf x -> Format.fprintf ppf "%h" x)
    (fun a b -> Float.equal a b || (Float.is_nan a && Float.is_nan b))

let check_exact = Alcotest.check exact

(* ---------------- pool combinators ---------------- *)

let test_map_array_pool_sizes () =
  let a = Array.init 237 (fun i -> i) in
  let f x = (sqrt (float_of_int (x + 1)) *. 3.7) +. (1.0 /. float_of_int (x + 2)) in
  let expect = Array.map f a in
  List.iter
    (fun domains ->
      Par.with_pool ~domains (fun pool ->
          let got = Par.map_array pool f a in
          Alcotest.(check bool)
            (Printf.sprintf "map_array identical at pool size %d" domains)
            true (got = expect)))
    [ 1; 2; 4 ]

let test_parallel_for_covers_all () =
  List.iter
    (fun domains ->
      Par.with_pool ~domains (fun pool ->
          let hits = Array.make 101 0 in
          Par.parallel_for pool ~lo:0 ~hi:101 (fun i -> hits.(i) <- hits.(i) + 1);
          Alcotest.(check bool)
            (Printf.sprintf "each index once at pool size %d" domains)
            true
            (Array.for_all (fun c -> c = 1) hits)))
    [ 1; 2; 4 ]

let test_map_reduce_associative () =
  let a = Array.init 500 (fun i -> i + 1) in
  let expect = Array.fold_left ( + ) 0 a in
  List.iter
    (fun domains ->
      Par.with_pool ~domains (fun pool ->
          Alcotest.(check int)
            (Printf.sprintf "sum at pool size %d" domains)
            expect
            (Par.map_reduce pool ~map:Fun.id ~combine:( + ) ~init:0 a)))
    [ 1; 2; 4 ]

let test_map_array_with_states () =
  (* One state per chunk, threaded through the whole chunk: with 3
     participants over 90 elements, at most 3 distinct states exist and
     results do not depend on them. *)
  Par.with_pool ~domains:3 (fun pool ->
      let made = Atomic.make 0 in
      let got =
        Par.map_array_with pool
          ~init:(fun () ->
            Atomic.incr made;
            ref 0)
          (fun counter x ->
            incr counter;
            x * 2)
          (Array.init 90 Fun.id)
      in
      Alcotest.(check bool) "results" true
        (got = Array.init 90 (fun i -> 2 * i));
      Alcotest.(check bool) "at most one state per participant" true
        (Atomic.get made <= 3))

exception Boom

let test_exception_propagates () =
  Par.with_pool ~domains:4 (fun pool ->
      Alcotest.check_raises "raised in caller" Boom (fun () ->
          ignore
            (Par.map_array pool
               (fun x -> if x = 77 then raise Boom else x)
               (Array.init 100 Fun.id)));
      (* The pool survives a failed job. *)
      Alcotest.(check bool) "pool usable after failure" true
        (Par.map_array pool (fun x -> x + 1) [| 1; 2; 3 |] = [| 2; 3; 4 |]))

(* ---------------- work-stealing layer ---------------- *)

let test_map_array_stealing_pool_sizes () =
  let a = Array.init 311 (fun i -> i) in
  let f x =
    (sqrt (float_of_int (x + 1)) *. 2.3) +. (1.0 /. float_of_int (x + 3))
  in
  let expect = Array.map f a in
  List.iter
    (fun domains ->
      Par.with_pool ~domains (fun pool ->
          let got = Par.map_array_stealing pool f a in
          Alcotest.(check bool)
            (Printf.sprintf "map_array_stealing identical at pool size %d"
               domains)
            true (got = expect)))
    [ 1; 2; 4 ]

let test_map_array_stealing_pooled_states () =
  (* The state is pure scratch: the result must not depend on which
     slot's state a stolen task lands on. *)
  List.iter
    (fun domains ->
      Par.with_pool ~domains (fun pool ->
          let states = Array.init domains (fun _ -> ref 0) in
          let got =
            Par.map_array_stealing_pooled pool ~states
              (fun r x ->
                r := x + 1;
                !r * 3)
              (Array.init 97 Fun.id)
          in
          Alcotest.(check bool)
            (Printf.sprintf "stolen scratch states identical at pool size %d"
               domains)
            true
            (got = Array.init 97 (fun i -> (i + 1) * 3))))
    [ 1; 2; 4 ]

let test_nested_stealing () =
  (* A stealing map whose tasks re-enter the same pool: the inner calls
     push to the running participant's own deque instead of deadlocking
     on a nested job post. *)
  Par.with_pool ~domains:4 (fun pool ->
      let got =
        Par.map_array_stealing pool
          (fun i ->
            Array.fold_left ( + ) 0
              (Par.map_array_stealing pool
                 (fun j -> i * j)
                 (Array.init 20 Fun.id)))
          (Array.init 30 Fun.id)
      in
      Alcotest.(check bool) "nested stealing identical" true
        (got = Array.init 30 (fun i -> i * 190)))

let test_stealing_counters () =
  Par.with_pool ~domains:3 (fun pool ->
      let before = Par.stats pool in
      let n = 128 in
      ignore (Par.map_array_stealing pool (fun x -> x * x) (Array.init n Fun.id));
      let after = Par.stats pool in
      Alcotest.(check int) "every element counted as one task" n
        (after.Par.tasks_executed - before.Par.tasks_executed);
      let stolen = after.Par.tasks_stolen - before.Par.tasks_stolen in
      Alcotest.(check bool) "stolen is a subset of executed" true
        (stolen >= 0 && stolen <= n))

let test_iter_stealing_covers_all () =
  List.iter
    (fun domains ->
      Par.with_pool ~domains (fun pool ->
          let hits = Array.make 173 0 in
          Par.iter_stealing pool ~lo:0 ~hi:173 (fun i ->
              hits.(i) <- hits.(i) + 1);
          Alcotest.(check bool)
            (Printf.sprintf "each index once at pool size %d" domains)
            true
            (Array.for_all (fun c -> c = 1) hits);
          (* sub-range and empty range *)
          let sub = Array.make 173 0 in
          Par.iter_stealing pool ~lo:40 ~hi:90 (fun i -> sub.(i) <- 1);
          Alcotest.(check bool) "sub-range only" true
            (Array.for_all2 (fun c i -> c = if i >= 40 && i < 90 then 1 else 0)
               sub
               (Array.init 173 Fun.id));
          Par.iter_stealing pool ~lo:5 ~hi:5 (fun _ -> assert false)))
    [ 1; 2; 4 ]

let test_iter_stealing_nested () =
  Par.with_pool ~domains:4 (fun pool ->
      let acc = Array.make 30 0 in
      Par.iter_stealing pool ~lo:0 ~hi:30 (fun i ->
          let inner = Array.make 20 0 in
          Par.iter_stealing pool ~lo:0 ~hi:20 (fun j -> inner.(j) <- i * j);
          acc.(i) <- Array.fold_left ( + ) 0 inner);
      Alcotest.(check bool) "nested iteration identical" true
        (acc = Array.init 30 (fun i -> i * 190)))

let test_iter_stealing_counters_and_exceptions () =
  Par.with_pool ~domains:3 (fun pool ->
      let before = Par.stats pool in
      Par.iter_stealing pool ~lo:0 ~hi:64 (fun _ -> ());
      let after = Par.stats pool in
      Alcotest.(check int) "every index counted as one task" 64
        (after.Par.tasks_executed - before.Par.tasks_executed);
      Alcotest.check_raises "raised in caller" Boom (fun () ->
          Par.iter_stealing pool ~lo:0 ~hi:100 (fun i ->
              if i = 50 then raise Boom));
      let hits = Atomic.make 0 in
      Par.iter_stealing pool ~lo:0 ~hi:10 (fun _ -> Atomic.incr hits);
      Alcotest.(check int) "pool usable after failure" 10 (Atomic.get hits))

let test_submit_await () =
  List.iter
    (fun domains ->
      Par.with_pool ~domains (fun pool ->
          let t1 = Par.submit pool (fun () -> 21 * 2) in
          let t2 = Par.submit pool (fun () -> "ok") in
          Alcotest.(check int) "awaited value" 42 (Par.await pool t1);
          Alcotest.(check string) "second task" "ok" (Par.await pool t2);
          Alcotest.(check int) "await is idempotent" 42 (Par.await pool t1)))
    [ 1; 3 ]

let test_stealing_exception_propagates () =
  Par.with_pool ~domains:4 (fun pool ->
      Alcotest.check_raises "raised in caller" Boom (fun () ->
          ignore
            (Par.map_array_stealing pool
               (fun x -> if x = 50 then raise Boom else x)
               (Array.init 100 Fun.id)));
      Alcotest.(check bool) "pool usable after stealing failure" true
        (Par.map_array_stealing pool (fun x -> x + 1) [| 1; 2 |] = [| 2; 3 |]);
      let t = Par.submit pool (fun () -> raise Boom) in
      Alcotest.check_raises "submit failure surfaces at await" Boom (fun () ->
          ignore (Par.await pool t)))

(* ---------------- batch payment engines ---------------- *)

let udg_node_graph seed ~n =
  let rng = Rng.create seed in
  let t = Wnet_topology.Udg.paper_instance rng ~n in
  let costs = Wnet_topology.Udg.uniform_node_costs rng ~n ~lo:1.0 ~hi:10.0 in
  Wnet_topology.Udg.node_graph t ~costs

let unicast_batch_equal (a : Unicast.t option array) b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y ->
         match (x, y) with
         | None, None -> true
         | Some (x : Unicast.t), Some (y : Unicast.t) ->
           x.Unicast.src = y.Unicast.src
           && x.Unicast.dst = y.Unicast.dst
           && x.Unicast.path = y.Unicast.path
           && Float.equal x.Unicast.lcp_cost y.Unicast.lcp_cost
           && Array.for_all2 Float.equal x.Unicast.relay_pay y.Unicast.relay_pay
           && Float.equal x.Unicast.charge y.Unicast.charge
         | _ -> false)
       a b

let test_unicast_batch_parallel_identical () =
  List.iter
    (fun seed ->
      let g = udg_node_graph seed ~n:120 in
      let seq = Unicast.all_to_root g ~root:0 in
      List.iter
        (fun domains ->
          Par.with_pool ~domains (fun pool ->
              let par = Unicast.all_to_root ~pool g ~root:0 in
              Alcotest.(check bool)
                (Printf.sprintf "seed %d pool %d bit-identical" seed domains)
                true (unicast_batch_equal seq par)))
        [ 2; 4 ])
    [ 3; 19 ]

(* The one-shot node batch against the reference, bit for bit,
   sequentially and on a 3-domain pool. *)
let test_unicast_batch_matches_reference () =
  Par.with_pool ~domains:3 (fun pool ->
      List.iter
        (fun seed ->
          let g = udg_node_graph seed ~n:120 in
          let r = Payment_ref.node g ~root:0 in
          Alcotest.(check (option string)) "pool 1" None
            (Test_util.unicast_diff (Unicast.all_to_root g ~root:0) r);
          Alcotest.(check (option string)) "pool 3" None
            (Test_util.unicast_diff (Unicast.all_to_root ~pool g ~root:0) r))
        [ 3; 19 ])

let test_unicast_batch_matches_per_source () =
  (* The batch engine (parallel, scratch-reusing) against the per-source
     Algorithm 1 run: same mechanism computed by a different algorithm,
     so payments agree to float tolerance per node. *)
  let g = udg_node_graph 11 ~n:90 in
  Par.with_pool ~domains:4 (fun pool ->
      let batch = Unicast.all_to_root ~pool g ~root:0 in
      Array.iteri
        (fun src entry ->
          if src <> 0 then
            match (entry, Unicast.run ~algo:Unicast.Fast g ~src ~dst:0) with
            | None, None -> ()
            | Some a, Some b ->
              Test_util.check_float "lcp cost" b.Unicast.lcp_cost
                a.Unicast.lcp_cost;
              Array.iteri
                (fun v pb ->
                  Test_util.check_float
                    (Printf.sprintf "payment src=%d node=%d" src v)
                    pb (Unicast.payment_to a v))
                (Test_util.dense_payments ~n:(Wnet_graph.Graph.n g) b.Unicast.path
                   b.Unicast.relay_pay)
            | _ -> Alcotest.fail "batch/per-source reachability mismatch")
        batch)

let link_batch_equal (a : Link_cost.batch) (b : Link_cost.batch) =
  a.Link_cost.root = b.Link_cost.root
  && Array.for_all2 Float.equal a.Link_cost.to_root_dist b.Link_cost.to_root_dist
  && Array.for_all2
       (fun x y ->
         match (x, y) with
         | None, None -> true
         | Some (x : Link_cost.t), Some (y : Link_cost.t) ->
           x.Link_cost.path = y.Link_cost.path
           && Float.equal x.Link_cost.lcp_cost y.Link_cost.lcp_cost
           && Float.equal x.Link_cost.relay_cost y.Link_cost.relay_cost
           && Array.for_all2 Float.equal x.Link_cost.relay_pay
                y.Link_cost.relay_pay
           && Float.equal x.Link_cost.charge y.Link_cost.charge
         | _ -> false)
       a.Link_cost.results b.Link_cost.results

(* The zero-copy batch against the reference, which rebuilds the graph
   for every relay: bit for bit, sequentially and on a 3-domain pool. *)
let test_link_cost_zero_copy_equals_copy () =
  let r = Test_util.rng 47 in
  Par.with_pool ~domains:3 (fun pool ->
      for _ = 1 to 6 do
        let inst =
          Wnet_topology.Random_range.paper_instance r ~n:60 ~kappa:2.0
        in
        let g = inst.Wnet_topology.Random_range.graph in
        let copy = Payment_ref.link g ~root:0 in
        List.iter
          (fun (what, b) ->
            Alcotest.(check (option string)) what None
              (Test_util.link_cost_diff b copy))
          [
            ( "pool 1 bit-identical to the graph-copy reference",
              Link_cost.all_to_root g ~root:0 );
            ( "pool 3 bit-identical to the graph-copy reference",
              Link_cost.all_to_root ~pool g ~root:0 );
          ]
      done)

let test_link_cost_parallel_identical () =
  let r = Test_util.rng 53 in
  let inst = Wnet_topology.Random_range.paper_instance r ~n:80 ~kappa:2.0 in
  let g = inst.Wnet_topology.Random_range.graph in
  let seq = Link_cost.all_to_root g ~root:0 in
  List.iter
    (fun domains ->
      Par.with_pool ~domains (fun pool ->
          let par = Link_cost.all_to_root ~pool g ~root:0 in
          Alcotest.(check bool)
            (Printf.sprintf "pool %d bit-identical" domains)
            true (link_batch_equal seq par)))
    [ 2; 4 ]

(* ---------------- experiment sweeps ---------------- *)

let studies_equal (a : Overpayment.study) (b : Overpayment.study) =
  Float.equal a.Overpayment.tor b.Overpayment.tor
  && Float.equal a.Overpayment.ior b.Overpayment.ior
  && Float.equal a.Overpayment.worst b.Overpayment.worst
  && a.Overpayment.skipped = b.Overpayment.skipped
  && a.Overpayment.samples = b.Overpayment.samples

let test_fig3_row_parallel_identical () =
  let model = Wnet_experiments.Fig3.Udg { kappa = 2.0 } in
  let sweep ?pool () =
    Wnet_experiments.Fig3.overpayment_sweep ~instances:4 ~ns:[ 100 ] ?pool
      ~seed:42 model
  in
  let seq = sweep () in
  Par.with_pool ~domains:3 (fun pool ->
      let par = sweep ~pool () in
      match (seq, par) with
      | [ s ], [ p ] ->
        Alcotest.(check int) "same n" s.Wnet_experiments.Fig3.n
          p.Wnet_experiments.Fig3.n;
        Alcotest.(check bool) "sweep row bit-identical" true
          (studies_equal s.Wnet_experiments.Fig3.study
             p.Wnet_experiments.Fig3.study);
        (* Also pin a value so the row is not trivially empty. *)
        Alcotest.(check bool) "row has samples" true
          (s.Wnet_experiments.Fig3.study.Overpayment.samples <> [])
      | _ -> Alcotest.fail "expected exactly one sweep row")

let test_hop_profile_parallel_identical () =
  let model = Wnet_experiments.Fig3.Udg { kappa = 2.0 } in
  let seq =
    Wnet_experiments.Fig3.hop_profile ~instances:3 ~n:120 ~seed:7 model
  in
  Par.with_pool ~domains:3 (fun pool ->
      let par =
        Wnet_experiments.Fig3.hop_profile ~instances:3 ~n:120 ~pool ~seed:7
          model
      in
      Alcotest.(check bool) "hop profile bit-identical" true (seq = par))

(* ---------------- dijkstra scratch ---------------- *)

let test_scratch_reuse_matches_fresh () =
  let r = Test_util.rng 91 in
  let scratch = Wnet_graph.Dijkstra.make_scratch 40 in
  for _ = 1 to 10 do
    let g = Test_util.random_ring_graph ~max_n:40 r in
    let n = Wnet_graph.Graph.n g in
    let fresh = Wnet_graph.Dijkstra.node_weighted g ~source:0 in
    let reused = Wnet_graph.Dijkstra.node_weighted_dist_csr scratch g ~source:0 in
    for v = 0 to n - 1 do
      check_exact
        (Printf.sprintf "dist %d" v)
        fresh.Wnet_graph.Dijkstra.dist.(v)
        reused.(v)
    done
  done

let suite =
  [
    Alcotest.test_case "map_array pool sizes 1/2/4" `Quick
      test_map_array_pool_sizes;
    Alcotest.test_case "parallel_for covers range" `Quick
      test_parallel_for_covers_all;
    Alcotest.test_case "map_reduce associative" `Quick
      test_map_reduce_associative;
    Alcotest.test_case "map_array_with per-chunk state" `Quick
      test_map_array_with_states;
    Alcotest.test_case "exceptions propagate, pool survives" `Quick
      test_exception_propagates;
    Alcotest.test_case "map_array_stealing pool sizes 1/2/4" `Quick
      test_map_array_stealing_pool_sizes;
    Alcotest.test_case "map_array_stealing_pooled scratch states" `Quick
      test_map_array_stealing_pooled_states;
    Alcotest.test_case "nested stealing re-enters the pool" `Quick
      test_nested_stealing;
    Alcotest.test_case "task counters: executed = n, stolen <= n" `Quick
      test_stealing_counters;
    Alcotest.test_case "iter_stealing covers range" `Quick
      test_iter_stealing_covers_all;
    Alcotest.test_case "iter_stealing nests" `Quick test_iter_stealing_nested;
    Alcotest.test_case "iter_stealing counters & exceptions" `Quick
      test_iter_stealing_counters_and_exceptions;
    Alcotest.test_case "submit/await round-trip" `Quick test_submit_await;
    Alcotest.test_case "stealing exceptions propagate, pool survives" `Quick
      test_stealing_exception_propagates;
    Alcotest.test_case "unicast batch: parallel = sequential (bits)" `Quick
      test_unicast_batch_parallel_identical;
    Alcotest.test_case "unicast batch = reference, pools 1/3 (bits)" `Quick
      test_unicast_batch_matches_reference;
    Alcotest.test_case "unicast batch vs per-source Fast" `Quick
      test_unicast_batch_matches_per_source;
    Alcotest.test_case "link-cost: zero-copy = graph-copy (bits)" `Quick
      test_link_cost_zero_copy_equals_copy;
    Alcotest.test_case "link-cost batch: parallel = sequential (bits)" `Quick
      test_link_cost_parallel_identical;
    Alcotest.test_case "fig3 sweep row: parallel = sequential (bits)" `Quick
      test_fig3_row_parallel_identical;
    Alcotest.test_case "fig3 hop profile: parallel = sequential (bits)" `Quick
      test_hop_profile_parallel_identical;
    Alcotest.test_case "dijkstra scratch reuse = fresh run" `Quick
      test_scratch_reuse_matches_fresh;
  ]
