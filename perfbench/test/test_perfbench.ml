(* Tests of the benchmark's own code: seeded op streams, the p99 guard,
   the /proc parsers and the naive reference. *)

open Perfbench_lib
module W = Workload

let ops served ~seed k =
  let next = W.served_ops ~seed served in
  List.init k (fun _ -> (next ()).W.bytes)

let link_served () =
  let g = W.link_instance ~seed:1 ~n:80 in
  W.Link (Wnet_graph.Digraph.n g, Array.of_list (Wnet_graph.Digraph.links g))

let node_served () = W.Node (W.node_instance ~seed:1 ~n:80)

let test_seeds () =
  List.iter
    (fun served ->
      Alcotest.(check (list string)) "same seed, same bytes" (ops (served ()) ~seed:7 20)
        (ops (served ()) ~seed:7 20);
      Alcotest.(check bool) "other seed, other bytes" false
        (ops (served ()) ~seed:7 20 = ops (served ()) ~seed:8 20))
    [ link_served; node_served ]

let test_p99 () =
  let xs n = Array.init n (fun i -> float_of_int (i + 1)) in
  (match Measure.p99 (xs 999) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "p99 of 999 samples");
  Alcotest.(check (result (float 0.0) string)) "ten samples beyond" (Ok 990.0) (Measure.p99 (xs 1000));
  Alcotest.(check (float 0.0)) "median" 2.5 (Measure.median [| 4.0; 1.0; 3.0; 2.0 |])

let stat_fixture =
  "4242 (unicast (listen) x) S 1 4242 4242 0 -1 4194304 1200 0 0 0 150 25 0 0 20 0 1 0 \
   811 21000000 2500 18446744073709551615 1 1 0 0 0 0 0 4096 0 0 0 0 17 1 0 0 0 0 0\n"

let status_fixture =
  "Name:\tunicast\nVmPeak:\t   30000 kB\nVmHWM:\t   12412 kB\nVmRSS:\t   12000 kB\n\
   Cpus_allowed_list:\t1\n"

let host_fixture =
  "cpu  1818252 0 76069 2946253 3797 0 5543 75553 0 0\n\
   cpu0 874796 0 37919 1507708 2078 0 2861 38614 0 0\n\
   cpu1 943456 0 38149 1438545 1718 0 2682 36939 0 0\n\
   intr 1 2 3\nctxt 99\n"

let test_procfs () =
  Alcotest.(check int) "stat utime + stime" 175 (Procfs.stat_cpu_ticks stat_fixture);
  Alcotest.(check int) "schedstat ns" 123456789 (Procfs.schedstat_ns "123456789 1000 50\n");
  Alcotest.(check int) "VmHWM" 12412 (Procfs.status_hwm_kb status_fixture);
  Alcotest.(check string) "CPUs allowed" "1" (Procfs.status_cpus status_fixture);
  Alcotest.(check int) "steal" 75553 (Procfs.host_steal_ticks host_fixture);
  Alcotest.(check int) "cores" 2 (Procfs.host_cores host_fixture);
  List.iter
    (fun (what, f) ->
      match f () with
      | _ -> Alcotest.failf "%s: malformed text accepted" what
      | exception Failure _ -> ())
    [
      ("stat", fun () -> Procfs.stat_cpu_ticks "4242 (x) S 1");
      ("schedstat", fun () -> Procfs.schedstat_ns "");
      ("status", fun () -> Procfs.status_hwm_kb "Name:\tx\n");
      ("host", fun () -> Procfs.host_steal_ticks "intr 1\n");
    ]

(* The reference agrees with the library's batch on a small instance. *)
let test_reference () =
  let g = W.link_instance ~seed:3 ~n:60 in
  let r = Reference.link ~n:60 ~root:0 (Array.of_list (Wnet_graph.Digraph.links g)) in
  let b = Wnet_core.Link_cost.all_to_root g ~root:0 in
  Array.iteri
    (fun src o ->
      match o with
      | None -> Alcotest.(check bool) "unserved" true (src = 0 || Float.is_nan r.charges.(src))
      | Some o ->
        let c = Wnet_core.Link_cost.total_payment o in
        if not (Reference.close c r.charges.(src)) then
          Alcotest.failf "source %d: library %g, reference %g" src c r.charges.(src))
    b.results;
  let gn = W.node_instance ~seed:3 ~n:60 in
  let rn =
    Reference.node ~root:0 ~costs:(Wnet_graph.Graph.costs gn)
      (Array.of_list (Wnet_graph.Graph.edges gn))
  in
  Array.iteri
    (fun src o ->
      match o with
      | None -> ()
      | Some o ->
        let c = Wnet_core.Unicast.total_payment o in
        if not (Reference.close c rn.charges.(src)) then
          Alcotest.failf "node source %d: library %g, reference %g" src c rn.charges.(src))
    (Wnet_core.Unicast.all_to_root gn ~root:0)

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "one seed gives the same request bytes" `Quick test_seeds;
          Alcotest.test_case "p99 refuses too few samples" `Quick test_p99;
          Alcotest.test_case "proc parsers read fixtures" `Quick test_procfs;
          Alcotest.test_case "reference agrees with the library" `Quick test_reference;
        ] );
    ]
