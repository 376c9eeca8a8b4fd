(* Benchmark and experiment harness.

     dune exec bench/main.exe                 micro-benches + quick experiments
     dune exec bench/main.exe -- micro        Bechamel micro-benchmarks only
     dune exec bench/main.exe -- micro --json micro + batch + session, JSON telemetry
     dune exec bench/main.exe -- batch        batch payment engine: seq vs parallel
     dune exec bench/main.exe -- session      incremental session vs full batch
     dune exec bench/main.exe -- server       coalesced delta bursts vs eager flushes
     dune exec bench/main.exe -- avoid        subtree-bounded avoidance kernel vs full-CSR
     dune exec bench/main.exe -- secondpath   Yen gap study: seq vs stolen spur tasks
     dune exec bench/main.exe -- dsim         distributed rounds at scale (1k..20k nodes)
     dune exec bench/main.exe -- microprims   per-primitive suite (bench/micro/) inline
     dune exec bench/main.exe -- experiments  every Figure 3 panel + studies
     dune exec bench/main.exe -- full         paper-scale experiments (100 instances)

   The micro-benchmarks time the paper's Algorithm 1 against the naive
   payment computation (the Sec. III-B complexity claim), plus the
   primitives they are built from.  The batch suite times the all-to-root
   payment engines — sequential vs Wnet_par domain pool, graph-copy vs
   zero-copy avoidance — at n in {100, 200, 400, 800}.  The session suite
   times single-edit incremental recomputes against from-scratch batches
   at the same sizes; the server suite times a coalesced k-edit burst
   (one flush-policy pass) against k eager single-edit flushes; the
   second-path suite times the Yen-dominated gap study sequentially vs
   with spur tasks fanned out through the work-stealing scheduler, and
   records the steal ratio its pool observed.  With
   [--json] (what [make bench] runs) results land in
   bench/results/BENCH_latest.json plus a timestamped copy, the
   machine-readable perf trajectory; with [--gate] the run first stashes
   the previous BENCH_latest.json and fails if any headline (batch,
   session, or server) metric slowed down by more than 20%.  Two
   defences keep the gate honest on a noisy shared box: baselines are
   scaled by a machine-speed canary (a fixed kernel timed with every
   run, stored in the file), and any row that still looks regressed is
   re-measured once with a doubled budget before it can fail the run.
   The experiment mode regenerates every panel of Figure 3 and the
   worked examples; EXPERIMENTS.md records a full run. *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks                                                     *)

let udg_instance seed ~n =
  let rng = Wnet_prng.Rng.create seed in
  let t =
    match
      Wnet_topology.Udg.generate_connected rng
        ~region:Wnet_geom.Region.paper_region ~n ~range:300.0 ~max_tries:100
    with
    | Some t -> t
    | None -> Wnet_topology.Udg.paper_instance rng ~n
  in
  let costs = Wnet_topology.Udg.uniform_node_costs rng ~n ~lo:1.0 ~hi:10.0 in
  Wnet_topology.Udg.node_graph t ~costs

let farthest g root =
  let t = Wnet_graph.Dijkstra.node_weighted g ~source:root in
  let best = ref root and d = ref neg_infinity in
  Array.iteri
    (fun v x ->
      if v <> root && Float.is_finite x && x > !d then begin
        best := v;
        d := x
      end)
    t.Wnet_graph.Dijkstra.dist;
  !best

let payment_tests ~n =
  let g = udg_instance 7 ~n in
  let src = farthest g 0 in
  let fast =
    Test.make
      ~name:(Printf.sprintf "alg1-fast/n=%d" n)
      (Staged.stage (fun () ->
           ignore (Wnet_graph.Avoid.replacement_costs_fast g ~src ~dst:0)))
  in
  let naive =
    Test.make
      ~name:(Printf.sprintf "naive/n=%d" n)
      (Staged.stage (fun () ->
           ignore (Wnet_graph.Avoid.replacement_costs_naive g ~src ~dst:0)))
  in
  [ fast; naive ]

let primitive_tests ~n =
  let g = udg_instance 8 ~n in
  let digraph =
    Wnet_topology.Udg.link_graph
      (Wnet_topology.Udg.paper_instance (Wnet_prng.Rng.create 9) ~n)
      ~model:(Wnet_geom.Power.path_loss_only ~kappa:2.0)
  in
  [
    Test.make
      ~name:(Printf.sprintf "dijkstra-node/n=%d" n)
      (Staged.stage (fun () ->
           ignore (Wnet_graph.Dijkstra.node_weighted g ~source:0)));
    Test.make
      ~name:(Printf.sprintf "dijkstra-link/n=%d" n)
      (Staged.stage (fun () -> ignore (Wnet_graph.Dijkstra.link_weighted digraph 0)));
    Test.make
      ~name:(Printf.sprintf "biconnectivity/n=%d" n)
      (Staged.stage (fun () -> ignore (Wnet_graph.Connectivity.articulation_points g)));
    Test.make
      ~name:(Printf.sprintf "all-to-root-batch/n=%d" n)
      (Staged.stage (fun () -> ignore (Wnet_core.Unicast.all_to_root g ~root:0)));
  ]

let edge_tests ~n =
  let rng = Wnet_prng.Rng.create 10 in
  let topo = Wnet_topology.Udg.paper_instance rng ~n in
  let g =
    Wnet_graph.Egraph.create ~n
      ~edges:
        (List.map
           (fun (u, v) -> (u, v, Wnet_prng.Rng.float_range rng 1.0 5.0))
           topo.Wnet_topology.Udg.edges)
  in
  let tree = Wnet_graph.Edge_avoid.shortest_tree g ~source:0 in
  let src =
    let best = ref 0 and d = ref neg_infinity in
    for v = 1 to n - 1 do
      let x = Wnet_graph.Dijkstra.dist tree v in
      if Float.is_finite x && x > !d then begin
        best := v;
        d := x
      end
    done;
    !best
  in
  [
    Test.make
      ~name:(Printf.sprintf "edge-hs-fast/n=%d" n)
      (Staged.stage (fun () ->
           ignore (Wnet_graph.Edge_avoid.replacement_costs_fast g ~src ~dst:0)));
    Test.make
      ~name:(Printf.sprintf "edge-naive/n=%d" n)
      (Staged.stage (fun () ->
           ignore (Wnet_graph.Edge_avoid.replacement_costs_naive g ~src ~dst:0)));
  ]

let run_micro () =
  let tests =
    Test.make_grouped ~name:"unicast"
      (payment_tests ~n:100 @ payment_tests ~n:200 @ payment_tests ~n:400
     @ primitive_tests ~n:200 @ edge_tests ~n:200)
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let table = Wnet_stats.Table.make ~headers:[ "benchmark"; "time/run"; "r^2" ] in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let time_ns =
        match Analyze.OLS.estimates ols with
        | Some [ t ] when Float.is_finite t -> Some t
        | _ -> None
      in
      let time =
        match time_ns with
        | Some t ->
          if t > 1e6 then Printf.sprintf "%.3f ms" (t /. 1e6)
          else if t > 1e3 then Printf.sprintf "%.3f us" (t /. 1e3)
          else Printf.sprintf "%.0f ns" t
        | None -> "n/a"
      in
      let r2 = Analyze.OLS.r_square ols in
      let r2_s =
        match r2 with Some r -> Printf.sprintf "%.4f" r | None -> "-"
      in
      rows := ((name, time, r2_s), (name, time_ns, r2)) :: !rows)
    results;
  let rows = List.sort compare !rows in
  List.iter
    (fun ((a, b, c), _) -> Wnet_stats.Table.add_row table [ a; b; c ])
    rows;
  print_endline "== Bechamel micro-benchmarks (time per call) ==";
  Wnet_stats.Table.print table;
  print_newline ();
  List.map snd rows

(* ------------------------------------------------------------------ *)
(* Batch payment engine: sequential vs domain-parallel, JSON telemetry  *)

let batch_ns = [ 100; 200; 400; 800 ]

let digraph_instance seed ~n =
  Wnet_topology.Udg.link_graph
    (Wnet_topology.Udg.paper_instance (Wnet_prng.Rng.create seed) ~n)
    ~model:(Wnet_geom.Power.path_loss_only ~kappa:2.0)

type batch_sample = {
  bench : string;
  bn : int;
  domains : int;
  time_s : float;  (* best observed wall-clock of one batch *)
  runs : int;
}

let time_once f =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (f ()));
  Unix.gettimeofday () -. t0

(* Best-of-k timing: warm up once, then repeat until the budget is spent
   (at least [min_reps] times) and keep the minimum — the usual estimator
   for wall-clock benchmarks on a noisy machine. *)
let time_best ?(budget = 0.6) ?(min_reps = 3) ?(max_reps = 40) f =
  ignore (Sys.opaque_identity (f ()));
  let best = ref infinity and total = ref 0.0 and reps = ref 0 in
  while !reps < min_reps || (!total < budget && !reps < max_reps) do
    let t = time_once f in
    if t < !best then best := t;
    total := !total +. t;
    incr reps
  done;
  (!best, !reps)

let gate_tolerance = 1.20

(* Machine-speed canary: a fixed, library-independent kernel (float
   arithmetic over a fresh boxed array, so CPU clocks and minor-GC cost
   both register) timed alongside every JSON run and stored in the
   file.  The gate divides the fresh canary time by the baseline's to
   estimate how much of an apparent slowdown is the shared box itself
   (frequency scaling, co-tenants) rather than the code, and scales the
   baselines by that factor — clamped to [1.0, 2.5] so a faster box
   never tightens the gate and a hosed box still fails loudly. *)
let canary_work () =
  let a =
    Array.init 32768 (fun i -> 1.0 +. (float_of_int (i land 511) /. 512.0))
  in
  let acc = ref 0.0 in
  for k = 1 to 40 do
    let f = float_of_int k in
    Array.iter (fun x -> acc := !acc +. ((x *. f) /. (x +. f))) a
  done;
  ignore (Sys.opaque_identity !acc)

let measure_canary () = fst (time_best ~budget:0.3 canary_work)

let canary_factor ~canary_now ~canary_old =
  match canary_old with
  | Some c when c > 0.0 -> Float.min 2.5 (Float.max 1.0 (canary_now /. c))
  | _ -> 1.0

(* A best-of-k minimum on a busy shared box is still occasionally
   polluted for a whole budget window (a co-tenant burst outlives every
   rep).  When a freshly measured row looks more than [gate_tolerance]
   slower than the previous baseline, measure it once more with a
   doubled budget and keep the better minimum: a genuine regression
   reproduces, a noise spike does not. *)
let retime ~previous key (t, runs) f =
  match previous with
  | None -> (t, runs)
  | Some rows -> (
    match List.assoc_opt key rows with
    | Some t_old when t_old > 0.0 && t > t_old *. gate_tolerance ->
      let t2, r2 = time_best ~budget:1.2 ~max_reps:80 f in
      let b, n, d = key in
      Printf.printf "  (re-measured %s n=%d domains=%d: %.3f ms -> %.3f ms)\n%!"
        b n d (t *. 1e3)
        (Float.min t t2 *. 1e3);
      (Float.min t t2, runs + r2)
    | _ -> (t, runs))

let run_batch ?previous () =
  let pool_domains = max 4 (Wnet_par.default_domains ()) in
  Wnet_par.with_pool ~domains:pool_domains (fun pool ->
      let samples = ref [] in
      let record bench bn domains f =
        let time_s, runs = retime ~previous (bench, bn, domains) (time_best f) f in
        samples := { bench; bn; domains; time_s; runs } :: !samples
      in
      List.iter
        (fun n ->
          let gn = udg_instance 7 ~n in
          let dg = digraph_instance 9 ~n in
          record "unicast-batch/seq" n 1 (fun () ->
              Wnet_core.Unicast.all_to_root gn ~root:0);
          record "unicast-batch/boxed/seq" n 1 (fun () ->
              Wnet_core.Unicast.all_to_root ~kernel:`Boxed gn ~root:0);
          record "unicast-batch/par" n pool_domains (fun () ->
              Wnet_core.Unicast.all_to_root ~pool gn ~root:0);
          record "linkcost-batch/copy/seq" n 1 (fun () ->
              Wnet_core.Link_cost.all_to_root
                ~strategy:Wnet_core.Link_cost.Copy_graph dg ~root:0);
          record "linkcost-batch/zerocopy/seq" n 1 (fun () ->
              Wnet_core.Link_cost.all_to_root
                ~strategy:Wnet_core.Link_cost.Zero_copy dg ~root:0);
          record "linkcost-batch/boxed/seq" n 1 (fun () ->
              Wnet_core.Link_cost.all_to_root
                ~strategy:Wnet_core.Link_cost.Zero_copy ~kernel:`Boxed dg
                ~root:0);
          record "linkcost-batch/zerocopy/par" n pool_domains (fun () ->
              Wnet_core.Link_cost.all_to_root ~pool dg ~root:0))
        batch_ns;
      (pool_domains, List.rev !samples))

let print_batch (pool_domains, samples) =
  Printf.printf
    "== Batch payment engine (best wall-clock per batch; pool = %d domains, \
     %d core(s) online) ==\n"
    pool_domains
    (Domain.recommended_domain_count ());
  let table =
    Wnet_stats.Table.make ~headers:[ "benchmark"; "n"; "domains"; "time"; "runs" ]
  in
  List.iter
    (fun s ->
      Wnet_stats.Table.add_row table
        [
          s.bench;
          string_of_int s.bn;
          string_of_int s.domains;
          (if s.time_s >= 1.0 then Printf.sprintf "%.3f s" s.time_s
           else Printf.sprintf "%.3f ms" (s.time_s *. 1e3));
          string_of_int s.runs;
        ])
    samples;
  Wnet_stats.Table.print table;
  let find bench n =
    List.find_opt (fun s -> s.bench = bench && s.bn = n) samples
  in
  print_newline ();
  List.iter
    (fun n ->
      match
        ( find "unicast-batch/seq" n,
          find "unicast-batch/par" n,
          find "linkcost-batch/copy/seq" n,
          find "linkcost-batch/zerocopy/seq" n,
          find "linkcost-batch/zerocopy/par" n )
      with
      | Some us, Some up, Some lc, Some lz, Some lp ->
        Printf.printf
          "n=%4d  unicast par/seq speedup %.2fx | link-cost zero-copy/copy \
           %.2fx (seq) | par vs copy baseline %.2fx\n"
          n (us.time_s /. up.time_s) (lc.time_s /. lz.time_s)
          (lc.time_s /. lp.time_s)
      | _ -> ())
    batch_ns;
  List.iter
    (fun n ->
      match
        ( find "unicast-batch/seq" n,
          find "unicast-batch/boxed/seq" n,
          find "linkcost-batch/zerocopy/seq" n,
          find "linkcost-batch/boxed/seq" n )
      with
      | Some uc, Some ub, Some lc, Some lb ->
        Printf.printf
          "n=%4d  CSR kernels vs boxed (seq): unicast %.2fx | link-cost %.2fx\n"
          n (ub.time_s /. uc.time_s) (lb.time_s /. lc.time_s)
      | _ -> ())
    batch_ns;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Incremental session engine vs from-scratch batch                     *)

(* Single-edit workloads on the link-cost session: how much of a batch
   does one topology delta actually cost once the engine reuses every
   avoidance Dijkstra the edit provably cannot touch?

   - cost-change: drift on the slackest unused link — the common case; no
     root-side shortest path moves, so only the shared tree reruns;
   - cost-change-critical: drift on a link the longest served path
     forwards on — the adversarial case; the nodes behind it change
     distance in nearly every avoidance search, and the flush policy
     repairs or refills each touched search, whichever it prices lower;
   - leave-rejoin: a non-relay node leaves and rejoins — typical churn;
     two single-edit recomputes per call.

   All runs sequential: the comparison is algorithmic, not a core
   count. *)

let session_targets dg =
  let open Wnet_graph in
  let n = Digraph.n dg in
  let rev = Digraph.reverse dg in
  let tree = Dijkstra.link_weighted rev 0 in
  let dist v = tree.Dijkstra.dist.(v) in
  let parent v = tree.Dijkstra.parent.(v) in
  let is_relay = Array.make n false in
  for v = 1 to n - 1 do
    if Dijkstra.reachable tree v then begin
      let h = parent v in
      if h > 0 then is_relay.(h) <- true
    end
  done;
  (* adversarial target: the link the farthest source's first relay
     forwards on *)
  let far = ref (-1) and fd = ref neg_infinity in
  for v = 1 to n - 1 do
    let x = dist v in
    if Float.is_finite x && x > !fd then begin
      far := v;
      fd := x
    end
  done;
  let critical =
    if !far < 0 then None
    else
      let h = parent !far in
      if h <= 0 then None else Some (h, parent h)
  in
  (* typical target: the unused link with the largest relative slack *)
  let slack = ref None in
  List.iter
    (fun (a, b, w) ->
      let da = dist a and db = dist b in
      if w > 0.0 && Float.is_finite da && Float.is_finite db && parent a <> b
      then begin
        let s = (db +. w -. da) /. w in
        match !slack with
        | Some (s0, _) when s0 >= s -> ()
        | _ -> slack := Some (s, (a, b))
      end)
    (Digraph.links dg);
  let slack_link =
    match !slack with Some (s, l) when s > 0.1 -> Some l | _ -> None
  in
  (* churn target: a served non-relay with the fewest incident links *)
  let leaf = ref None in
  for v = 1 to n - 1 do
    if Dijkstra.reachable tree v && not is_relay.(v) then begin
      let deg =
        Array.length (Digraph.out_links dg v)
        + Array.length (Digraph.out_links rev v)
      in
      match !leaf with
      | Some (d0, _) when d0 <= deg -> ()
      | _ -> leaf := Some (deg, v)
    end
  done;
  match (slack_link, critical, !leaf) with
  | Some sl, Some c, Some (_, leaf) -> Some (sl, c, leaf)
  | _ -> None

let run_session ?previous () =
  let module S = Wnet_session.Link_session in
  (* The incremental workloads are small (ms); heap garbage left by the
     batch + Bechamel suites otherwise charges them a major-GC tax that
     the standalone [session] mode never pays. *)
  Gc.compact ();
  let samples = ref [] in
  let hists = ref [] in
  let record bench bn f =
    let time_s, runs = retime ~previous (bench, bn, 1) (time_best f) f in
    samples := { bench; bn; domains = 1; time_s; runs } :: !samples
  in
  List.iter
    (fun n ->
      let dg = digraph_instance 9 ~n in
      match session_targets dg with
      | None -> ()
      | Some ((su, sv), (cu, cv), leaf) ->
        record "session/full-batch/seq" n (fun () ->
            Wnet_core.Link_cost.all_to_root
              ~strategy:Wnet_core.Link_cost.Zero_copy dg ~root:0);
        let s = S.create dg ~root:0 in
        ignore (S.payments s);
        (* alternate between two weights so every repetition is a real
           edit *)
        let toggle s u v =
          let w0 = S.cost s u v in
          let w1 = w0 *. 1.05 in
          fun () ->
            let w = if Float.equal (S.cost s u v) w0 then w1 else w0 in
            S.set_cost s u v w;
            S.payments s
        in
        record "session/cost-change/seq" n (toggle s su sv);
        record "session/cost-change-critical/seq" n (toggle s cu cv);
        (* churn round-trip: leave, payments; rejoin with the old links,
           payments — two single-edit recomputes per call *)
        let snap = S.snapshot s in
        let out_links = Array.to_list (Wnet_graph.Digraph.out_links snap leaf) in
        let in_links =
          Array.to_list
            (Wnet_graph.Digraph.out_links (Wnet_graph.Digraph.reverse snap) leaf)
        in
        record "session/leave-rejoin/seq" n (fun () ->
            S.remove_node s leaf;
            ignore (S.payments s);
            S.rejoin_node s leaf ~out:out_links ~inn:in_links;
            S.payments s);
        (* affected-region sizes every repair on [s] touched above: the
           slack/critical toggles and the churn round-trips *)
        hists := (n, S.region_histogram s) :: !hists)
    batch_ns;
  (List.rev !samples, List.rev !hists)

(* ------------------------------------------------------------------ *)
(* Server workload: coalesced delta bursts vs one-at-a-time flushes     *)

(* The socket server folds a burst of k cost edits — from one client or
   interleaved across several — into ONE invalidation pass over the
   avoidance-cache array at the next flush.  These rows time exactly
   that fold against the pre-coalescing behaviour (an eager pass after
   every edit), on a session whose caches were populated by one
   payments run.  No payments call inside the timed region: the rows
   isolate the flush cost the coalescing removes: the shared tree is
   repaired and every touched avoidance entry repaired or dropped once
   per burst instead of once per edit.  (The `-repair` suffix is
   historical: the rows once had drop-mode twins without it.) *)

let server_burst = 16

let run_server ?previous () =
  let module S = Wnet_session.Link_session in
  Gc.compact ();
  let samples = ref [] in
  let record bench bn f =
    let time_s, runs = retime ~previous (bench, bn, 1) (time_best f) f in
    samples := { bench; bn; domains = 1; time_s; runs } :: !samples
  in
  List.iter
    (fun n ->
      let dg = digraph_instance 9 ~n in
      let links = Array.of_list (Wnet_graph.Digraph.links dg) in
      let k = server_burst in
      if Array.length links >= k then begin
        let step = Array.length links / k in
        let chosen = Array.init k (fun i -> links.(i * step)) in
        (* alternate the whole burst between the original weights and a
           5% bump so every repetition nets k real edits *)
        let make_factor () =
          let flip = ref false in
          fun () ->
            let f = if !flip then 1.05 else 1.0 in
            flip := not !flip;
            f
        in
        let burst s factor () =
          let f = factor () in
          Array.iter (fun (u, v, w) -> S.set_cost s u v (w *. f)) chosen;
          S.flush s
        in
        let eager s factor () =
          let f = factor () in
          Array.iter
            (fun (u, v, w) ->
              S.set_cost s u v (w *. f);
              S.flush s)
            chosen
        in
        let sd = S.create dg ~root:0 in
        ignore (S.payments sd);
        record "server/coalesce-burst-repair/seq" n (burst sd (make_factor ()));
        record "server/coalesce-eager-repair/seq" n (eager sd (make_factor ()))
      end)
    batch_ns;
  List.rev !samples

(* ------------------------------------------------------------------ *)
(* Subtree-bounded avoidance kernel vs full-CSR sweeps (wnet-bench/10)  *)

(* The `CsrBounded kernel copies exterior distances off the shared tree
   and re-settles only the silenced relay's SPT subtree; the `Csr twin
   answers the same cache misses with one full-graph Dijkstra per
   relay.  Two workloads per n, both sequential so the kernel is the
   only variable:

   - cold-start: a fresh session's first [payments] call — every relay
     is a cache miss (session construction is inside the timed region,
     identically on both sides);
   - cache-miss fill: the adversarial on-tree toggle on a default
     session — the flush policy drops the touched entries it prices
     dearer to repair, and the next [payments] refills them through the
     kernel under test.

   A pooled bounded cold run per n rides along untimed to record the
   work-stealing scheduler's behaviour over region tasks, and the
   region-size histogram the bounded session accumulated is kept for
   the JSON file. *)

type avoid_result = {
  av_domains : int;
  av_samples : batch_sample list;
  av_hists : (int * (int * int) list) list;
  av_tasks : int;
  av_stolen : int;
}

let empty_avoid =
  { av_domains = 0; av_samples = []; av_hists = []; av_tasks = 0; av_stolen = 0 }

let run_avoid ?previous () =
  let module S = Wnet_session.Link_session in
  Gc.compact ();
  let pool_domains = max 4 (Wnet_par.default_domains ()) in
  Wnet_par.with_pool ~domains:pool_domains (fun pool ->
      let samples = ref [] and hists = ref [] in
      let tasks = ref 0 and stolen = ref 0 in
      let record bench bn domains f =
        let time_s, runs =
          retime ~previous (bench, bn, domains) (time_best f) f
        in
        samples := { bench; bn; domains; time_s; runs } :: !samples
      in
      List.iter
        (fun n ->
          let dg = digraph_instance 9 ~n in
          match session_targets dg with
          | None -> ()
          | Some (_, (cu, cv), _) ->
            record "avoid/cold-start/bounded" n 1 (fun () ->
                let s = S.create dg ~root:0 in
                S.payments s);
            record "avoid/cold-start/full" n 1 (fun () ->
                let s = S.create ~kernel:`Csr dg ~root:0 in
                S.payments s);
            (* the same alternating toggle the session suite uses, so
               every repetition nets one real edit and one refill *)
            let fill s =
              let w0 = S.cost s cu cv in
              let w1 = w0 *. 1.05 in
              fun () ->
                let w = if Float.equal (S.cost s cu cv) w0 then w1 else w0 in
                S.set_cost s cu cv w;
                S.payments s
            in
            let sb = S.create dg ~root:0 in
            ignore (S.payments sb);
            let sf = S.create ~kernel:`Csr dg ~root:0 in
            ignore (S.payments sf);
            record "avoid/fill/bounded" n 1 (fill sb);
            record "avoid/fill/full" n 1 (fill sf);
            hists := (n, S.region_histogram sb) :: !hists;
            (* pooled bounded cold run, once, for the steal telemetry *)
            let sp = S.create ~pool dg ~root:0 in
            ignore (S.payments sp);
            let st = S.stats sp in
            tasks := !tasks + st.S.tasks_executed;
            stolen := !stolen + st.S.tasks_stolen)
        batch_ns;
      {
        av_domains = pool_domains;
        av_samples = List.rev !samples;
        av_hists = List.rev !hists;
        av_tasks = !tasks;
        av_stolen = !stolen;
      })

let avoid_speedups samples =
  let find bench n =
    List.find_opt (fun s -> s.bench = bench && s.bn = n) samples
  in
  List.filter_map
    (fun n ->
      match
        ( find "avoid/cold-start/bounded" n,
          find "avoid/cold-start/full" n,
          find "avoid/fill/bounded" n,
          find "avoid/fill/full" n )
      with
      | Some cb, Some cf, Some fb, Some ff ->
        Some (n, cf.time_s /. cb.time_s, ff.time_s /. fb.time_s)
      | _ -> None)
    batch_ns

let avoid_steal_ratio r =
  if r.av_tasks = 0 then 0.0
  else float_of_int r.av_stolen /. float_of_int r.av_tasks

let print_avoid r =
  print_endline
    "== Subtree-bounded avoidance kernel vs full-CSR (sequential) ==";
  let table =
    Wnet_stats.Table.make ~headers:[ "benchmark"; "n"; "domains"; "time"; "runs" ]
  in
  List.iter
    (fun s ->
      Wnet_stats.Table.add_row table
        [
          s.bench;
          string_of_int s.bn;
          string_of_int s.domains;
          (if s.time_s >= 1.0 then Printf.sprintf "%.3f s" s.time_s
           else Printf.sprintf "%.3f ms" (s.time_s *. 1e3));
          string_of_int s.runs;
        ])
    r.av_samples;
  Wnet_stats.Table.print table;
  print_newline ();
  List.iter
    (fun (n, cold, fill) ->
      Printf.printf
        "n=%4d  bounded vs full-CSR: cold start %.2fx | cache-miss fill %.2fx\n"
        n cold fill)
    (avoid_speedups r.av_samples);
  Printf.printf
    "pooled bounded cold runs: tasks=%d stolen=%d steal ratio %.3f (%d domains)\n"
    r.av_tasks r.av_stolen (avoid_steal_ratio r) r.av_domains;
  List.iter
    (fun (n, hist) ->
      let total = List.fold_left (fun a (_, c) -> a + c) 0 hist in
      Printf.printf "n=%4d  region sizes over %d bounded fills: %s\n" n total
        (String.concat " "
           (List.map (fun (lo, c) -> Printf.sprintf ">=%d:%d" lo c) hist)))
    r.av_hists;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Sharded socket server throughput (wnet-bench/8)                      *)

(* End-to-end rounds through the real sharded server: 4 access-point
   sessions pinned round-robin onto 1, 2 or 4 shards, one socket client
   per session, and a timed round = every client sends one cost edit
   plus a pay, then reads its acks and payment lines back.  The s1 row
   is the fused single-threaded loop; s2/s4 put the same byte stream
   through the listener/mailbox/shard path, so on a single-core box the
   rows mostly price the handoff machinery (see EXPERIMENTS.md), while
   on a multi-core box they show the per-shard scaling.  Payments stay
   bit-identical at every shard count — that contract is pinned by the
   test suite and scripts/smoke_shard.sh, not re-checked here. *)

let shard_server_ns = [ 100; 400; 800 ]
let shard_server_counts = [ 1; 2; 4 ]
let shard_server_sessions = 4

let run_shard_server ?previous () =
  Gc.compact ();
  let samples = ref [] in
  let record bench bn domains f =
    let time_s, runs = retime ~previous (bench, bn, domains) (time_best f) f in
    samples := { bench; bn; domains; time_s; runs } :: !samples
  in
  List.iter
    (fun n ->
      let links = Wnet_graph.Digraph.links (digraph_instance 9 ~n) in
      let u, v, w0 = List.hd links in
      List.iter
        (fun shards ->
          let sessions =
            Array.init shard_server_sessions (fun _ ->
                Wnet_session.make ~root:0
                  (`Link (Wnet_graph.Digraph.create ~n ~links)))
          in
          let router =
            Wnet_server.Router.pin ~shards (fun k -> k mod shards)
          in
          let path =
            Filename.concat
              (Filename.get_temp_dir_name ())
              (Printf.sprintf "wnet-bench-shard-%d-%d-%d.sock" (Unix.getpid ())
                 n shards)
          in
          (try Unix.unlink path with Unix.Unix_error _ -> ());
          let server =
            Wnet_server.create ~shards ~router (Wnet_server.Unix_path path)
              sessions
          in
          let th = Thread.create Wnet_server.serve server in
          let conns =
            Array.init shard_server_sessions (fun k ->
                let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
                Unix.connect fd (Unix.ADDR_UNIX path);
                let ic = Unix.in_channel_of_descr fd in
                let oc = Unix.out_channel_of_descr fd in
                ignore (input_line ic);
                if k > 0 then begin
                  output_string oc
                    (Wnet_proto.print_request
                       (Wnet_proto.Attach { session = k }));
                  output_char oc '\n';
                  flush oc;
                  ignore (input_line ic)
                end;
                (fd, ic, oc))
          in
          (* toggle the edited weight so every round nets a real edit;
             writes fan out to every shard before any reply is read *)
          let flip = ref false in
          let round () =
            flip := not !flip;
            let w = if !flip then w0 *. 1.05 else w0 in
            let burst =
              Wnet_proto.print_request (Wnet_proto.Cost_link { u; v; w })
              ^ "\npay\n"
            in
            Array.iter
              (fun (_, _, oc) ->
                output_string oc burst;
                flush oc)
              conns;
            Array.iter
              (fun (_, ic, _) ->
                let rec to_paid () =
                  match Wnet_proto.parse_response (input_line ic) with
                  | Ok (Wnet_proto.Paid _) -> ()
                  | _ -> to_paid ()
                in
                to_paid ())
              conns
          in
          record (Printf.sprintf "server/shard-rps/s%d" shards) n shards round;
          Wnet_server.shutdown server;
          Thread.join th;
          Array.iter
            (fun (fd, _, _) ->
              try Unix.close fd with Unix.Unix_error _ -> ())
            conns)
        shard_server_counts)
    shard_server_ns;
  List.rev !samples

let shard_server_speedups samples =
  let find shards n =
    List.find_opt
      (fun s ->
        s.bench = Printf.sprintf "server/shard-rps/s%d" shards && s.bn = n)
      samples
  in
  List.filter_map
    (fun n ->
      match (find 1 n, find 2 n, find 4 n) with
      | Some s1, Some s2, Some s4 when s2.time_s > 0.0 && s4.time_s > 0.0 ->
        Some (n, s1.time_s /. s2.time_s, s1.time_s /. s4.time_s)
      | _ -> None)
    shard_server_ns

let print_shard_server samples =
  Printf.printf
    "== Sharded server throughput (%d sessions round-robin on 1/2/4 shards; \
     round = one edit + one pay per client) ==\n"
    shard_server_sessions;
  let table =
    Wnet_stats.Table.make
      ~headers:[ "workload"; "n"; "shards"; "round"; "rounds/s"; "runs" ]
  in
  List.iter
    (fun s ->
      Wnet_stats.Table.add_row table
        [
          s.bench;
          string_of_int s.bn;
          string_of_int s.domains;
          Printf.sprintf "%.3f ms" (s.time_s *. 1e3);
          (if s.time_s > 0.0 then Printf.sprintf "%.0f" (1.0 /. s.time_s)
           else "-");
          string_of_int s.runs;
        ])
    samples;
  Wnet_stats.Table.print table;
  print_newline ();
  List.iter
    (fun (n, x2, x4) ->
      Printf.printf "n=%4d  2 shards vs fused: %.2fx   4 shards vs fused: %.2fx\n"
        n x2 x4)
    (shard_server_speedups samples);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Second-path gap study: sequential Yen vs work-stealing spur fan-out  *)

(* The Figure 3(d) mechanism study is Yen-dominated: per source, one
   shortest-path Dijkstra plus one spur Dijkstra per hop of the best
   path.  The parallel rows run the same study with the per-instance
   tasks AND each Yen round's spur searches fanned out through the
   work-stealing scheduler; the output is bit-identical to the
   sequential run (see test/test_ksp.ml), so the rows measure pure
   scheduling overhead or speedup.  A run at n=800 costs seconds, so
   these rows use a reduced rep budget; the steal ratio (stolen tasks /
   tasks executed, over the parallel rows) lands in the JSON next to
   the timings. *)

type second_path_result = {
  sp_domains : int;
  sp_samples : batch_sample list;
  sp_executed : int;
  sp_stolen : int;
}

let run_second_path ?previous () =
  let pool_domains = max 2 (Wnet_par.default_domains ()) in
  Wnet_par.with_pool ~domains:pool_domains (fun pool ->
      Gc.compact ();
      let samples = ref [] in
      let record bench bn domains f =
        let time_s, runs =
          retime ~previous (bench, bn, domains)
            (time_best ~budget:0.3 ~min_reps:1 ~max_reps:8 f)
            f
        in
        samples := { bench; bn; domains; time_s; runs } :: !samples
      in
      let before = Wnet_par.stats pool in
      List.iter
        (fun n ->
          record "second-path/seq" n 1 (fun () ->
              Wnet_experiments.Second_path_exp.study ~n ~instances:1 ~seed:117
                ());
          record "second-path/par" n pool_domains (fun () ->
              Wnet_experiments.Second_path_exp.study ~n ~instances:1 ~pool
                ~seed:117 ()))
        batch_ns;
      let after = Wnet_par.stats pool in
      {
        sp_domains = pool_domains;
        sp_samples = List.rev !samples;
        sp_executed =
          after.Wnet_par.tasks_executed - before.Wnet_par.tasks_executed;
        sp_stolen = after.Wnet_par.tasks_stolen - before.Wnet_par.tasks_stolen;
      })

let second_path_speedups samples =
  let find bench n =
    List.find_opt (fun s -> s.bench = bench && s.bn = n) samples
  in
  List.filter_map
    (fun n ->
      match (find "second-path/seq" n, find "second-path/par" n) with
      | Some sq, Some pr when pr.time_s > 0.0 -> Some (n, sq.time_s /. pr.time_s)
      | _ -> None)
    batch_ns

let steal_ratio r =
  float_of_int r.sp_stolen /. float_of_int (max 1 r.sp_executed)

let print_second_path r =
  Printf.printf
    "== Second-path gap study (Yen): sequential vs stolen spur tasks (pool = \
     %d domains) ==\n"
    r.sp_domains;
  let table =
    Wnet_stats.Table.make ~headers:[ "workload"; "n"; "domains"; "time"; "runs" ]
  in
  List.iter
    (fun s ->
      Wnet_stats.Table.add_row table
        [
          s.bench;
          string_of_int s.bn;
          string_of_int s.domains;
          (if s.time_s >= 1.0 then Printf.sprintf "%.3f s" s.time_s
           else Printf.sprintf "%.3f ms" (s.time_s *. 1e3));
          string_of_int s.runs;
        ])
    r.sp_samples;
  Wnet_stats.Table.print table;
  print_newline ();
  List.iter
    (fun (n, x) ->
      Printf.printf "n=%4d  second-path par/seq speedup: %.2fx\n" n x)
    (second_path_speedups r.sp_samples);
  Printf.printf
    "scheduler: %d task(s) executed on the par rows, %d stolen (ratio %.3f)\n"
    r.sp_executed r.sp_stolen (steal_ratio r);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Per-primitive micro rows (bench/micro/)                              *)

(* The same primitives the one-exe-per-primitive suite runs
   (bench/micro/bench_proto_encode & co.), timed with this harness's
   best-of-k + canary + retime machinery and emitted as headline-shaped
   rows ("micro/<family>/<prim>", n = ops per run), so the 20% gate
   covers the codec and scheduler primitives like any other wall-clock
   metric.  The allocation discipline is measured here too (words/op
   lands in the JSON) but only *asserted* by the standalone exes —
   a bench run should not die on an allocation regression, the gate
   and CI smoke report it. *)

module M = Wnet_microbench

type micro_prim_sample = {
  mp_row : batch_sample;
  mp_ns_per_op : float;
  mp_words_per_op : float option;  (* None on bytecode *)
  mp_alloc_free : bool;
}

let microprim_families () =
  [
    ("proto-encode", M.proto_encode ());
    ("proto-decode", M.proto_decode ());
    ("deque", M.deque ());
    ("heap", M.heap ());
    ("repair", M.repair ());
    ("dijkstra", M.dijkstra ());
    ("avoid", M.avoid ());
    ("avoid-region", M.avoid_region ());
    ("graph", M.graph ());
  ]

let run_microprims ?previous () =
  let samples = ref [] in
  List.iter
    (fun (family, prims) ->
      List.iter
        (fun (p : M.prim) ->
          let bench = Printf.sprintf "micro/%s/%s" family p.M.name in
          let time_s, runs =
            retime ~previous (bench, p.M.ops, 1)
              (time_best ~budget:0.2 p.M.run)
              p.M.run
          in
          let words =
            if Sys.backend_type = Sys.Native then
              Some (M.alloc_words_per_op ~reps:8 p)
            else None
          in
          samples :=
            {
              mp_row = { bench; bn = p.M.ops; domains = 1; time_s; runs };
              mp_ns_per_op = time_s /. float_of_int p.M.ops *. 1e9;
              mp_words_per_op = words;
              mp_alloc_free = p.M.alloc_free;
            }
            :: !samples)
        prims)
    (microprim_families ());
  List.rev !samples

(* Binary codec vs the text codec on the same message, per direction:
   the headline claim of the proto=2 work. *)
let proto_codec_speedups mps =
  let find bench =
    List.find_opt (fun s -> s.mp_row.bench = bench) mps
  in
  List.filter_map
    (fun (name, bin, text) ->
      match (find bin, find text) with
      | Some b, Some t when b.mp_ns_per_op > 0.0 ->
        Some (name, b.mp_ns_per_op, t.mp_ns_per_op)
      | _ -> None)
    [
      ( "encode/cost-link",
        "micro/proto-encode/bin/cost-link",
        "micro/proto-encode/text/cost-link" );
      ( "decode/cost-link",
        "micro/proto-decode/bin/view/cost-link",
        "micro/proto-decode/text/cost-link" );
    ]

let print_microprims mps =
  print_endline
    "== Per-primitive micro suite (bench/micro/): ns/op, minor words/op ==";
  let table =
    Wnet_stats.Table.make
      ~headers:[ "primitive"; "ns/op"; "words/op"; "runs" ]
  in
  List.iter
    (fun s ->
      Wnet_stats.Table.add_row table
        [
          s.mp_row.bench;
          Printf.sprintf "%.1f" s.mp_ns_per_op;
          (match s.mp_words_per_op with
          | Some w -> Printf.sprintf "%.3f" w
          | None -> "n/a");
          string_of_int s.mp_row.runs;
        ])
    mps;
  Wnet_stats.Table.print table;
  print_newline ();
  List.iter
    (fun (name, bin_ns, text_ns) ->
      Printf.printf "proto %s: binary %.1f ns/op vs text %.1f ns/op (%.1fx)\n"
        name bin_ns text_ns (text_ns /. bin_ns))
    (proto_codec_speedups mps);
  (match
     List.find_opt
       (fun s ->
         s.mp_alloc_free
         && match s.mp_words_per_op with Some w -> w > 0.01 | None -> false)
       mps
   with
  | Some s ->
    Printf.printf
      "WARNING: %s allocates %.3f minor words/op on a path declared \
       allocation-free (bench/micro exe will fail)\n"
      s.mp_row.bench
      (Option.value ~default:0.0 s.mp_words_per_op)
  | None -> ());
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Distributed simulation at scale (wnet-bench/7)                       *)

(* The stage-2 payment relaxation on sparse connected G(n, 6/n)
   instances, sequential vs the pool-parallel round loop, plus the
   budgeted cost-sharing scenario.  Convergence rounds and deliveries
   are recorded alongside wall time: on a 1-core container the
   deliveries/round ratio is the scaling proxy (the parallel rows only
   spread out on real multi-core hosts; the results are bit-identical
   either way). *)

let dsim_ns = [ 1000; 5000; 10000; 20000 ]

type dsim_convergence = {
  dc_n : int;
  dc_rounds : int;
  dc_deliveries : int;
  dc_converged : bool;
}

type dsim_result = {
  ds_domains : int;
  ds_samples : batch_sample list;
  ds_convergence : dsim_convergence list;
}

let dsim_instance seed ~n =
  let rng = Wnet_prng.Rng.create seed in
  Wnet_topology.Gnp.connected_graph rng ~n
    ~p:(6.0 /. float_of_int (max n 2))
    ~cost_lo:1.0 ~cost_hi:10.0

let run_dsim ?previous () =
  let pool_domains = max 2 (Wnet_par.default_domains ()) in
  Wnet_par.with_pool ~domains:pool_domains (fun pool ->
      Gc.compact ();
      let samples = ref [] and convergence = ref [] in
      let record bench bn domains f =
        let time_s, runs =
          retime ~previous (bench, bn, domains)
            (time_best ~budget:0.3 ~min_reps:1 ~max_reps:4 f)
            f
        in
        samples := { bench; bn; domains; time_s; runs } :: !samples
      in
      List.iter
        (fun n ->
          let g = dsim_instance 23 ~n in
          let seq = ref None in
          record "dsim-payment/seq" n 1 (fun () ->
              seq := Some (Wnet_dsim.Payment_protocol.run g ~root:0));
          record "dsim-payment/par" n pool_domains (fun () ->
              let o = Wnet_dsim.Payment_protocol.run ~pool g ~root:0 in
              (* determinism contract: parallel rounds must reproduce the
                 sequential run bit for bit, stats included *)
              match !seq with
              | Some s
                when s.Wnet_dsim.Payment_protocol.payments
                       <> o.Wnet_dsim.Payment_protocol.payments
                     || s.Wnet_dsim.Payment_protocol.stats.Wnet_dsim.Engine
                          .rounds
                        <> o.Wnet_dsim.Payment_protocol.stats
                             .Wnet_dsim.Engine.rounds ->
                failwith "dsim-payment: parallel run diverged from sequential"
              | _ -> ());
          record "dsim-costshare/seq" n 1 (fun () ->
              Wnet_dsim.Costshare_protocol.run
                ~subscriber:(fun v -> v <> 0)
                ~budget:(fun _ -> infinity)
                g ~root:0);
          (match !seq with
          | Some o ->
            let st = o.Wnet_dsim.Payment_protocol.stats in
            convergence :=
              {
                dc_n = n;
                dc_rounds = st.Wnet_dsim.Engine.rounds;
                dc_deliveries = st.Wnet_dsim.Engine.deliveries;
                dc_converged = st.Wnet_dsim.Engine.converged;
              }
              :: !convergence
          | None -> ()))
        dsim_ns;
      {
        ds_domains = pool_domains;
        ds_samples = List.rev !samples;
        ds_convergence = List.rev !convergence;
      })

let empty_dsim = { ds_domains = 0; ds_samples = []; ds_convergence = [] }

let print_dsim r =
  Printf.printf
    "== Distributed simulation at scale (stage-2 payments + cost-share on \
     G(n, 6/n); pool = %d domains) ==\n"
    r.ds_domains;
  let table =
    Wnet_stats.Table.make ~headers:[ "workload"; "n"; "domains"; "time"; "runs" ]
  in
  List.iter
    (fun s ->
      Wnet_stats.Table.add_row table
        [
          s.bench;
          string_of_int s.bn;
          string_of_int s.domains;
          (if s.time_s >= 1.0 then Printf.sprintf "%.3f s" s.time_s
           else Printf.sprintf "%.3f ms" (s.time_s *. 1e3));
          string_of_int s.runs;
        ])
    r.ds_samples;
  Wnet_stats.Table.print table;
  print_newline ();
  List.iter
    (fun c ->
      Printf.printf
        "n=%6d  payment convergence: %d rounds, %d deliveries (%.0f/round), \
         converged=%b\n"
        c.dc_n c.dc_rounds c.dc_deliveries
        (float_of_int c.dc_deliveries /. float_of_int (max 1 c.dc_rounds))
        c.dc_converged)
    r.ds_convergence;
  print_newline ()

let server_speedups samples =
  let find bench n =
    List.find_opt (fun s -> s.bench = bench && s.bn = n) samples
  in
  List.filter_map
    (fun n ->
      match
        ( find "server/coalesce-burst-repair/seq" n,
          find "server/coalesce-eager-repair/seq" n )
      with
      | Some burst, Some eager when burst.time_s > 0.0 ->
        Some (n, eager.time_s /. burst.time_s)
      | _ -> None)
    batch_ns

let print_server samples =
  Printf.printf
    "== Server delta coalescing (%d-edit burst: one folded flush pass vs \
     a pass per edit) ==\n"
    server_burst;
  let table =
    Wnet_stats.Table.make ~headers:[ "workload"; "n"; "time"; "runs" ]
  in
  List.iter
    (fun s ->
      Wnet_stats.Table.add_row table
        [
          s.bench;
          string_of_int s.bn;
          (if s.time_s >= 1.0 then Printf.sprintf "%.3f s" s.time_s
           else Printf.sprintf "%.3f ms" (s.time_s *. 1e3));
          string_of_int s.runs;
        ])
    samples;
  Wnet_stats.Table.print table;
  print_newline ();
  List.iter
    (fun (n, x) ->
      Printf.printf "n=%4d  coalesced burst vs eager flushes: %.2fx\n" n x)
    (server_speedups samples);
  print_newline ()

let session_speedups samples =
  let find bench n =
    List.find_opt (fun s -> s.bench = bench && s.bn = n) samples
  in
  List.filter_map
    (fun n ->
      match
        ( find "session/full-batch/seq" n,
          find "session/cost-change/seq" n,
          find "session/leave-rejoin/seq" n )
      with
      | Some batch, Some cc, Some lr ->
        (* the leave-rejoin sample holds two edit+recompute cycles *)
        Some
          ( n,
            batch.time_s /. cc.time_s,
            2.0 *. batch.time_s /. lr.time_s )
      | _ -> None)
    batch_ns

let print_session (samples, hists) =
  print_endline
    "== Incremental session vs from-scratch batch (single edit + payments, \
     sequential) ==";
  let table =
    Wnet_stats.Table.make ~headers:[ "workload"; "n"; "time"; "runs" ]
  in
  List.iter
    (fun s ->
      Wnet_stats.Table.add_row table
        [
          s.bench;
          string_of_int s.bn;
          (if s.time_s >= 1.0 then Printf.sprintf "%.3f s" s.time_s
           else Printf.sprintf "%.3f ms" (s.time_s *. 1e3));
          string_of_int s.runs;
        ])
    samples;
  Wnet_stats.Table.print table;
  print_newline ();
  List.iter
    (fun (n, cc, lr) ->
      Printf.printf
        "n=%4d  incremental vs batch: cost change %.2fx | leave/rejoin %.2fx\n"
        n cc lr)
    (session_speedups samples);
  print_newline ();
  List.iter
    (fun (n, hist) ->
      Printf.printf "n=%4d  affected-region sizes:" n;
      List.iter (fun (lo, c) -> Printf.printf " >=%d:%d" lo c) hist;
      print_newline ())
    hists;
  print_newline ()

(* Hand-rolled JSON writer — names and numbers only, nothing to escape
   beyond the basics. *)
let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float x =
  if Float.is_finite x then Printf.sprintf "%.9g" x else "null"

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

let write_json ~canary ~micro ~microprims ~session ~hists ~server ~avoid
    ~second_path ~dsim (pool_domains, samples) =
  let now = Unix.gmtime (Unix.time ()) in
  let stamp =
    Printf.sprintf "%04d%02d%02dT%02d%02d%02dZ" (now.Unix.tm_year + 1900)
      (now.Unix.tm_mon + 1) now.Unix.tm_mday now.Unix.tm_hour now.Unix.tm_min
      now.Unix.tm_sec
  in
  let iso =
    Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (now.Unix.tm_year + 1900)
      (now.Unix.tm_mon + 1) now.Unix.tm_mday now.Unix.tm_hour now.Unix.tm_min
      now.Unix.tm_sec
  in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"schema\": \"wnet-bench/10\",\n";
  Buffer.add_string b (Printf.sprintf "  \"generated_at\": \"%s\",\n" iso);
  Buffer.add_string b
    (Printf.sprintf "  \"ocaml\": \"%s\",\n" (json_escape Sys.ocaml_version));
  Buffer.add_string b
    (Printf.sprintf "  \"cores_online\": %d,\n"
       (Domain.recommended_domain_count ()));
  Buffer.add_string b (Printf.sprintf "  \"pool_domains\": %d,\n" pool_domains);
  Buffer.add_string b
    (Printf.sprintf "  \"canary_s\": %s,\n" (json_float canary));
  Buffer.add_string b "  \"batch\": [\n";
  List.iteri
    (fun i s ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"bench\": \"%s\", \"n\": %d, \"domains\": %d, \"time_s\": \
            %s, \"runs\": %d}%s\n"
           (json_escape s.bench) s.bn s.domains (json_float s.time_s) s.runs
           (if i = List.length samples - 1 then "" else ",")))
    samples;
  Buffer.add_string b "  ],\n";
  let find bench n =
    List.find_opt (fun s -> s.bench = bench && s.bn = n) samples
  in
  Buffer.add_string b "  \"speedups\": [\n";
  let speedup_rows =
    List.filter_map
      (fun n ->
        match
          ( find "unicast-batch/seq" n,
            find "unicast-batch/par" n,
            find "linkcost-batch/copy/seq" n,
            find "linkcost-batch/zerocopy/seq" n,
            find "linkcost-batch/zerocopy/par" n )
        with
        | Some us, Some up, Some lc, Some lz, Some lp ->
          Some
            (Printf.sprintf
               "    {\"n\": %d, \"unicast_par_vs_seq\": %s, \
                \"linkcost_zerocopy_vs_copy_seq\": %s, \
                \"linkcost_par_vs_copy_seq\": %s}"
               n
               (json_float (us.time_s /. up.time_s))
               (json_float (lc.time_s /. lz.time_s))
               (json_float (lc.time_s /. lp.time_s)))
        | _ -> None)
      batch_ns
  in
  Buffer.add_string b (String.concat ",\n" speedup_rows);
  Buffer.add_string b "\n  ],\n";
  (* wnet-bench/9: flat-CSR kernels vs the boxed-adjacency oracle, both
     sequential and zero-copy, so the only variable is the kernel. *)
  Buffer.add_string b "  \"csr_speedups\": [\n";
  let csr_rows =
    List.filter_map
      (fun n ->
        match
          ( find "unicast-batch/seq" n,
            find "unicast-batch/boxed/seq" n,
            find "linkcost-batch/zerocopy/seq" n,
            find "linkcost-batch/boxed/seq" n )
        with
        | Some uc, Some ub, Some lc, Some lb ->
          Some
            (Printf.sprintf
               "    {\"n\": %d, \"unicast_csr_vs_boxed_seq\": %s, \
                \"linkcost_csr_vs_boxed_seq\": %s}"
               n
               (json_float (ub.time_s /. uc.time_s))
               (json_float (lb.time_s /. lc.time_s)))
        | _ -> None)
      batch_ns
  in
  Buffer.add_string b (String.concat ",\n" csr_rows);
  Buffer.add_string b "\n  ],\n";
  Buffer.add_string b "  \"session\": [\n";
  List.iteri
    (fun i s ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"bench\": \"%s\", \"n\": %d, \"domains\": %d, \"time_s\": \
            %s, \"runs\": %d}%s\n"
           (json_escape s.bench) s.bn s.domains (json_float s.time_s) s.runs
           (if i = List.length session - 1 then "" else ",")))
    session;
  Buffer.add_string b "  ],\n";
  Buffer.add_string b "  \"session_speedups\": [\n";
  let session_rows =
    List.map
      (fun (n, cc, lr) ->
        Printf.sprintf
          "    {\"n\": %d, \"cost_change_vs_batch\": %s, \
           \"leave_vs_batch\": %s}"
          n (json_float cc) (json_float lr))
      (session_speedups session)
  in
  Buffer.add_string b (String.concat ",\n" session_rows);
  Buffer.add_string b "\n  ],\n";
  (* wnet-bench/4: the affected-region size histogram the session
     rows' repairs and refills produced (log2 classes: ge = class lower
     bound, 0 = nothing to patch). *)
  Buffer.add_string b "  \"repair\": {\n";
  Buffer.add_string b "    \"region_histogram\": [\n";
  let hist_rows =
    List.map
      (fun (n, hist) ->
        let buckets =
          List.map
            (fun (lo, c) -> Printf.sprintf "{\"ge\": %d, \"count\": %d}" lo c)
            hist
        in
        Printf.sprintf "      {\"n\": %d, \"buckets\": [%s]}" n
          (String.concat ", " buckets))
      hists
  in
  Buffer.add_string b (String.concat ",\n" hist_rows);
  Buffer.add_string b "\n    ]\n";
  Buffer.add_string b "  },\n";
  (* wnet-bench/10: the subtree-bounded avoidance kernel vs the
     full-CSR oracle on cold starts and cache-miss fills ("rows" use
     the headline object shape so the 20% gate covers them), the steal
     telemetry of the pooled bounded cold runs, and the region-size
     histogram of every bounded fill (same log2 classes as the repair
     histogram). *)
  Buffer.add_string b "  \"avoid\": {\n";
  Buffer.add_string b
    (Printf.sprintf "    \"pool_domains\": %d,\n" avoid.av_domains);
  Buffer.add_string b
    (Printf.sprintf "    \"tasks_executed\": %d,\n" avoid.av_tasks);
  Buffer.add_string b
    (Printf.sprintf "    \"tasks_stolen\": %d,\n" avoid.av_stolen);
  Buffer.add_string b
    (Printf.sprintf "    \"steal_ratio\": %s,\n"
       (json_float (avoid_steal_ratio avoid)));
  Buffer.add_string b "    \"rows\": [\n";
  List.iteri
    (fun i s ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"bench\": \"%s\", \"n\": %d, \"domains\": %d, \"time_s\": \
            %s, \"runs\": %d}%s\n"
           (json_escape s.bench) s.bn s.domains (json_float s.time_s) s.runs
           (if i = List.length avoid.av_samples - 1 then "" else ",")))
    avoid.av_samples;
  Buffer.add_string b "    ],\n";
  Buffer.add_string b "    \"speedups\": [\n";
  let avoid_rows =
    List.map
      (fun (n, cold, fill) ->
        Printf.sprintf
          "      {\"n\": %d, \"cold_bounded_vs_full\": %s, \
           \"fill_bounded_vs_full\": %s}"
          n (json_float cold) (json_float fill))
      (avoid_speedups avoid.av_samples)
  in
  Buffer.add_string b (String.concat ",\n" avoid_rows);
  Buffer.add_string b "\n    ],\n";
  Buffer.add_string b "    \"region_hist\": [\n";
  let avoid_hist_rows =
    List.map
      (fun (n, hist) ->
        let buckets =
          List.map
            (fun (lo, c) -> Printf.sprintf "{\"ge\": %d, \"count\": %d}" lo c)
            hist
        in
        Printf.sprintf "      {\"n\": %d, \"buckets\": [%s]}" n
          (String.concat ", " buckets))
      avoid.av_hists
  in
  Buffer.add_string b (String.concat ",\n" avoid_hist_rows);
  Buffer.add_string b "\n    ]\n";
  Buffer.add_string b "  },\n";
  Buffer.add_string b "  \"server\": [\n";
  List.iteri
    (fun i s ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"bench\": \"%s\", \"n\": %d, \"domains\": %d, \"time_s\": \
            %s, \"runs\": %d}%s\n"
           (json_escape s.bench) s.bn s.domains (json_float s.time_s) s.runs
           (if i = List.length server - 1 then "" else ",")))
    server;
  Buffer.add_string b "  ],\n";
  Buffer.add_string b "  \"server_speedups\": [\n";
  let server_rows =
    List.map
      (fun (n, x) ->
        Printf.sprintf "    {\"n\": %d, \"burst_vs_eager_repair\": %s}" n
          (json_float x))
      (server_speedups server)
  in
  Buffer.add_string b (String.concat ",\n" server_rows);
  Buffer.add_string b "\n  ],\n";
  (* wnet-bench/5: the Yen-dominated second-path study, sequential vs
     work-stealing spur fan-out, plus the scheduler telemetry of the
     parallel rows (steal_ratio = tasks_stolen / tasks_executed). *)
  Buffer.add_string b "  \"second_path\": {\n";
  Buffer.add_string b
    (Printf.sprintf "    \"pool_domains\": %d,\n" second_path.sp_domains);
  Buffer.add_string b
    (Printf.sprintf "    \"tasks_executed\": %d,\n" second_path.sp_executed);
  Buffer.add_string b
    (Printf.sprintf "    \"tasks_stolen\": %d,\n" second_path.sp_stolen);
  Buffer.add_string b
    (Printf.sprintf "    \"steal_ratio\": %s,\n"
       (json_float (steal_ratio second_path)));
  Buffer.add_string b "    \"rows\": [\n";
  List.iteri
    (fun i s ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"bench\": \"%s\", \"n\": %d, \"domains\": %d, \"time_s\": \
            %s, \"runs\": %d}%s\n"
           (json_escape s.bench) s.bn s.domains (json_float s.time_s) s.runs
           (if i = List.length second_path.sp_samples - 1 then "" else ",")))
    second_path.sp_samples;
  Buffer.add_string b "    ],\n";
  Buffer.add_string b "    \"speedups\": [\n";
  let sp_rows =
    List.map
      (fun (n, x) ->
        Printf.sprintf "      {\"n\": %d, \"par_vs_seq\": %s}" n (json_float x))
      (second_path_speedups second_path.sp_samples)
  in
  Buffer.add_string b (String.concat ",\n" sp_rows);
  Buffer.add_string b "\n    ]\n";
  Buffer.add_string b "  },\n";
  (* wnet-bench/7: the distributed simulation at scale.  "rows" use the
     headline object shape so the 20% gate covers them; "convergence"
     records rounds/deliveries per n (deliveries/round is the scaling
     proxy on 1-core containers). *)
  Buffer.add_string b "  \"dsim\": {\n";
  Buffer.add_string b
    (Printf.sprintf "    \"pool_domains\": %d,\n" dsim.ds_domains);
  Buffer.add_string b "    \"rows\": [\n";
  List.iteri
    (fun i s ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"bench\": \"%s\", \"n\": %d, \"domains\": %d, \"time_s\": \
            %s, \"runs\": %d}%s\n"
           (json_escape s.bench) s.bn s.domains (json_float s.time_s) s.runs
           (if i = List.length dsim.ds_samples - 1 then "" else ",")))
    dsim.ds_samples;
  Buffer.add_string b "    ],\n";
  Buffer.add_string b "    \"convergence\": [\n";
  let dc_rows =
    List.map
      (fun c ->
        Printf.sprintf
          "      {\"n\": %d, \"rounds\": %d, \"deliveries\": %d, \
           \"deliveries_per_round\": %s, \"converged\": %b}"
          c.dc_n c.dc_rounds c.dc_deliveries
          (json_float
             (float_of_int c.dc_deliveries /. float_of_int (max 1 c.dc_rounds)))
          c.dc_converged)
      dsim.ds_convergence
  in
  Buffer.add_string b (String.concat ",\n" dc_rows);
  Buffer.add_string b "\n    ]\n";
  Buffer.add_string b "  },\n";
  (* wnet-bench/6: per-primitive micro rows (bench/micro/).  The
     "micro_prims" rows use the headline object shape so the gate's
     line scanner picks them up; "micro_prims_ns" carries the derived
     ns/op, the measured minor words/op, and the allocation contract;
     "proto_speedups" is the binary-vs-text codec headline. *)
  Buffer.add_string b "  \"micro_prims\": [\n";
  List.iteri
    (fun i s ->
      let r = s.mp_row in
      Buffer.add_string b
        (Printf.sprintf
           "    {\"bench\": \"%s\", \"n\": %d, \"domains\": %d, \"time_s\": \
            %s, \"runs\": %d}%s\n"
           (json_escape r.bench) r.bn r.domains (json_float r.time_s) r.runs
           (if i = List.length microprims - 1 then "" else ",")))
    microprims;
  Buffer.add_string b "  ],\n";
  Buffer.add_string b "  \"micro_prims_ns\": [\n";
  let mp_rows =
    List.map
      (fun s ->
        Printf.sprintf
          "    {\"name\": \"%s\", \"ns_per_op\": %s, \"words_per_op\": %s, \
           \"alloc_free\": %b}"
          (json_escape s.mp_row.bench)
          (json_float s.mp_ns_per_op)
          (match s.mp_words_per_op with
          | Some w -> json_float w
          | None -> "null")
          s.mp_alloc_free)
      microprims
  in
  Buffer.add_string b (String.concat ",\n" mp_rows);
  Buffer.add_string b "\n  ],\n";
  Buffer.add_string b "  \"proto_speedups\": [\n";
  let ps_rows =
    List.map
      (fun (name, bin_ns, text_ns) ->
        Printf.sprintf
          "    {\"name\": \"%s\", \"bin_ns_per_op\": %s, \"text_ns_per_op\": \
           %s, \"bin_vs_text\": %s}"
          (json_escape name) (json_float bin_ns) (json_float text_ns)
          (json_float (text_ns /. bin_ns)))
      (proto_codec_speedups microprims)
  in
  Buffer.add_string b (String.concat ",\n" ps_rows);
  Buffer.add_string b "\n  ],\n";
  Buffer.add_string b "  \"micro\": [\n";
  let micro_rows =
    List.map
      (fun (name, time_ns, r2) ->
        Printf.sprintf
          "    {\"name\": \"%s\", \"time_ns\": %s, \"r_square\": %s}"
          (json_escape name)
          (match time_ns with Some t -> json_float t | None -> "null")
          (match r2 with Some r -> json_float r | None -> "null"))
      micro
  in
  Buffer.add_string b (String.concat ",\n" micro_rows);
  Buffer.add_string b "\n  ]\n}\n";
  ensure_dir "bench";
  ensure_dir "bench/results";
  let write path =
    let oc = open_out path in
    Buffer.output_buffer oc b;
    close_out oc;
    Printf.printf "wrote %s\n%!" path
  in
  write "bench/results/BENCH_latest.json";
  write (Printf.sprintf "bench/results/BENCH_%s.json" stamp)

(* ------------------------------------------------------------------ *)
(* Regression gate                                                      *)

(* Reads the headline wall-clock rows — the "batch" and "session"
   sections, whose objects this writer emits one per line — out of a
   previous BENCH_latest.json.  The Bechamel micro numbers are excluded:
   they are the noisiest and not what the gate protects. *)
let read_headline_rows path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    let rows = ref [] in
    (try
       while true do
         let line = String.trim (input_line ic) in
         let line =
           if String.length line > 0 && line.[String.length line - 1] = ',' then
             String.sub line 0 (String.length line - 1)
           else line
         in
         try
           Scanf.sscanf line
             "{\"bench\": %S, \"n\": %d, \"domains\": %d, \"time_s\": %f, \
              \"runs\": %d}" (fun bench n d t _runs ->
               rows := ((bench, n, d), t) :: !rows)
         with Scanf.Scan_failure _ | Failure _ | End_of_file -> ()
       done
     with End_of_file -> close_in ic);
    Some !rows

(* The previous run's machine canary, if the file is new enough to
   carry one (absent in wnet-bench/2 files: the factor degrades to 1). *)
let read_canary path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    let found = ref None in
    (try
       while !found = None do
         let line = String.trim (input_line ic) in
         try
           Scanf.sscanf line "\"canary_s\": %f" (fun c -> found := Some c)
         with Scanf.Scan_failure _ | Failure _ -> ()
       done
     with End_of_file -> ());
    close_in ic;
    !found

(* Compares the freshly measured rows against the previous run and fails
   (exit 1) when any headline metric slowed down by more than 20%.  Rows
   without a counterpart (renamed benches, first run, schema changes)
   pass silently. *)
let run_gate ~previous (_, batch_samples) headline_samples =
  match previous with
  | None ->
    print_endline "bench gate: no previous BENCH_latest.json, baseline run"
  | Some old_rows ->
    let current =
      List.map
        (fun s -> ((s.bench, s.bn, s.domains), s.time_s))
        (batch_samples @ headline_samples)
    in
    let regressions =
      List.filter_map
        (fun (key, t_new) ->
          match List.assoc_opt key old_rows with
          | Some t_old when t_old > 0.0 && t_new > t_old *. gate_tolerance ->
            Some (key, t_old, t_new)
          | _ -> None)
        current
    in
    let compared =
      List.length
        (List.filter (fun (key, _) -> List.assoc_opt key old_rows <> None)
           current)
    in
    (match regressions with
    | [] ->
      Printf.printf
        "bench gate: ok, %d headline metric(s) within %.0f%% of the previous \
         run\n"
        compared
        ((gate_tolerance -. 1.0) *. 100.0)
    | _ ->
      Printf.printf "bench gate: FAIL, %d regression(s) worse than %.0f%%:\n"
        (List.length regressions)
        ((gate_tolerance -. 1.0) *. 100.0);
      List.iter
        (fun ((bench, n, d), t_old, t_new) ->
          Printf.printf "  %s n=%d domains=%d: %.3f ms -> %.3f ms (%.2fx)\n"
            bench n d (t_old *. 1e3) (t_new *. 1e3) (t_new /. t_old))
        regressions;
      exit 1)

(* ------------------------------------------------------------------ *)
(* Experiments: one block per paper artifact                            *)

let heading s =
  Printf.printf "\n==================== %s ====================\n\n%!" s

let run_experiments ~instances ~hop_instances ~distributed_instances () =
  heading "Figure 3(a): IOR vs TOR, UDG, kappa = 2";
  print_endline
    (Wnet_experiments.Fig3.render_sweep
       ~title:"(IOR and TOR nearly coincide and stay ~1.5 as n grows)"
       (Wnet_experiments.Fig3.overpayment_sweep ~instances ~seed:101
          (Wnet_experiments.Fig3.Udg { kappa = 2.0 })));
  heading "Figure 3(b): + worst ratio, UDG, kappa = 2";
  print_endline
    (Wnet_experiments.Fig3.render_sweep
       ~title:"(worst ratio is noisy, well above IOR/TOR, shrinking with n)"
       (Wnet_experiments.Fig3.overpayment_sweep ~instances ~seed:102
          (Wnet_experiments.Fig3.Udg { kappa = 2.0 })));
  heading "Figure 3(c): UDG, kappa = 2.5";
  print_endline
    (Wnet_experiments.Fig3.render_sweep ~title:"(same shape at kappa = 2.5)"
       (Wnet_experiments.Fig3.overpayment_sweep ~instances ~seed:103
          (Wnet_experiments.Fig3.Udg { kappa = 2.5 })));
  heading "Figure 3(d): overpayment vs hop distance, UDG, kappa = 2, n = 500";
  print_endline
    (Wnet_experiments.Fig3.render_hop_profile
       ~title:"(mean flat in hop distance; max decreasing)"
       (Wnet_experiments.Fig3.hop_profile ~instances:hop_instances ~seed:104
          (Wnet_experiments.Fig3.Udg { kappa = 2.0 })));
  heading "Figure 3(e): random ranges, kappa = 2";
  print_endline
    (Wnet_experiments.Fig3.render_sweep ~title:"(heterogeneous-range digraph model)"
       (Wnet_experiments.Fig3.overpayment_sweep ~instances ~seed:105
          (Wnet_experiments.Fig3.Random_range { kappa = 2.0 })));
  heading "Figure 3(f): random ranges, kappa = 2.5";
  print_endline
    (Wnet_experiments.Fig3.render_sweep ~title:"(same, kappa = 2.5)"
       (Wnet_experiments.Fig3.overpayment_sweep ~instances ~seed:106
          (Wnet_experiments.Fig3.Random_range { kappa = 2.5 })));
  heading "Ablation: node-cost model with uniform costs";
  print_endline
    (Wnet_experiments.Node_model.render
       ~title:"(mechanism-level overpayment without the geometric cost model)"
       (Wnet_experiments.Node_model.sweep ~instances ~seed:107 ()));
  heading "Algorithm 1 vs naive payment computation (Sec. III-B)";
  print_endline (Wnet_experiments.Speed.render (Wnet_experiments.Speed.sweep ~seed:108 ()));
  heading "Distributed protocols (Sec. III-C/D)";
  print_endline
    (Wnet_experiments.Distributed_exp.render
       (Wnet_experiments.Distributed_exp.sweep ~instances:distributed_instances
          ~seed:109 ()));
  heading "Collusion studies (Sec. III-E / III-H, Theorems 7-8)";
  print_endline
    (Wnet_experiments.Collusion_exp.render
       (Wnet_experiments.Collusion_exp.study ~n:30 ~instances:10 ~seed:110 ()));
  heading "Ablation: the price of collusion resistance (p~ vs p)";
  print_endline "Dense G(n, 0.3) (Theorem 8's resilience precondition holds):";
  print_endline
    (Wnet_experiments.Scheme_ablation.render
       (Wnet_experiments.Scheme_ablation.sweep ~seed:111 ()));
  print_newline ();
  print_endline "Dense UDG (closed neighbourhoods are disks; resilience mostly fails):";
  print_endline
    (Wnet_experiments.Scheme_ablation.render
       (Wnet_experiments.Scheme_ablation.sweep
          ~topology:Wnet_experiments.Scheme_ablation.Dense_udg ~ns:[ 50; 100 ]
          ~seed:112 ()));
  heading "Mechanism behind Fig. 3(d): second-path gap vs hop distance";
  print_endline
    (Wnet_experiments.Second_path_exp.render
       (Wnet_experiments.Second_path_exp.study ~seed:117 ()));
  print_newline ();
  heading "Ablation: node agents (this paper) vs edge agents (Nisan-Ronen)";
  print_endline
    (Wnet_experiments.Agent_model_exp.render
       (Wnet_experiments.Agent_model_exp.sweep ~seed:116 ()));
  print_newline ();
  heading "Motivation (Sec. I): cooperation regimes on identical traffic";
  print_endline
    (Wnet_experiments.Lifetime_exp.render
       (Wnet_experiments.Lifetime_exp.study ~seed:115 ()));
  print_newline ();
  heading "Critique of the uniform-relay traffic model of refs [1]/[7] (Sec. II-D)";
  print_endline
    (Wnet_experiments.Relay_load.render
       (Wnet_experiments.Relay_load.study ~instances ~seed:118 ()));
  print_newline ();
  heading "Baselines: fixed-price rationing and watchdog mislabelling (Sec. II-D)";
  print_endline
    (Wnet_experiments.Baseline_exp.render_nuglet
       (Wnet_experiments.Baseline_exp.nuglet_sweep ~seed:113 ()));
  print_newline ();
  print_endline
    (Wnet_experiments.Baseline_exp.render_watchdog
       (Wnet_experiments.Baseline_exp.watchdog_sweep ~seed:114 ()));
  heading "Worked examples (Figures 2 and 4)";
  let f2 = Wnet_core.Examples.fig2 in
  let honest =
    Option.get
      (Wnet_core.Unicast.run f2.Wnet_core.Examples.graph
         ~src:f2.Wnet_core.Examples.source ~dst:f2.Wnet_core.Examples.access_point)
  in
  let lying =
    Option.get
      (Wnet_core.Unicast.run f2.Wnet_core.Examples.lying_graph
         ~src:f2.Wnet_core.Examples.source ~dst:f2.Wnet_core.Examples.access_point)
  in
  Printf.printf
    "Figure 2: honest total payment %g (paper: 6); hiding one edge pays %g (paper: 5)\n"
    (Wnet_core.Unicast.total_payment honest)
    (Wnet_core.Unicast.total_payment lying);
  let f4 = Wnet_core.Examples.fig4 in
  let batch =
    Wnet_core.Unicast.all_to_root f4.Wnet_core.Examples.graph
      ~root:f4.Wnet_core.Examples.access_point
  in
  let r8 = Option.get batch.(f4.Wnet_core.Examples.reseller) in
  (match
     Wnet_core.Collusion.resale_opportunities f4.Wnet_core.Examples.graph
       ~root:f4.Wnet_core.Examples.access_point ~payments:(fun v -> batch.(v))
   with
  | o :: _ ->
    Printf.printf
      "Figure 4: p_8 = %g (paper: 20); resale via v%d costs %g after splitting a saving of %g\n"
      (Wnet_core.Unicast.total_payment r8)
      o.Wnet_core.Collusion.proxy
      (Wnet_core.Collusion.effective_cost_after_resale o)
      o.Wnet_core.Collusion.saving
  | [] -> print_endline "Figure 4: no resale found (unexpected)")

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let json = List.mem "--json" args in
  let gate = List.mem "--gate" args in
  let mode =
    match List.filter (fun a -> a <> "--json" && a <> "--gate") args with
    | [] -> "default"
    | m :: _ -> m
  in
  let json_run () =
    let baseline = "bench/results/BENCH_latest.json" in
    let canary_now = measure_canary () in
    let previous =
      if not gate then None
      else
        match read_headline_rows baseline with
        | None -> None
        | Some rows ->
          let canary_old = read_canary baseline in
          let factor = canary_factor ~canary_now ~canary_old in
          if factor > 1.0 then
            Printf.printf
              "bench gate: machine canary %.3f ms (baseline %.3f ms) — \
               normalising baselines by %.2fx\n%!"
              (canary_now *. 1e3)
              (Option.value ~default:0.0 canary_old *. 1e3)
              factor;
          Some (List.map (fun (k, t) -> (k, t *. factor)) rows)
    in
    (* Wall-clock suites first, Bechamel last: its thousands of forced
       major collections bank so much GC pacing credit that the major
       collector all but stops for the next ~600 MB of allocation,
       inflating any timing taken afterwards by up to 10x. *)
    let batch = run_batch ?previous () in
    print_batch batch;
    let session, hists = run_session ?previous () in
    print_session (session, hists);
    let server = run_server ?previous () in
    print_server server;
    (* wnet-bench/8: the sharded end-to-end rows ride in the "server"
       JSON section (same headline object shape, so the gate covers
       them). *)
    let shard_server = run_shard_server ?previous () in
    print_shard_server shard_server;
    let server = server @ shard_server in
    let avoid = run_avoid ?previous () in
    print_avoid avoid;
    let second_path = run_second_path ?previous () in
    print_second_path second_path;
    let dsim = run_dsim ?previous () in
    print_dsim dsim;
    let microprims = run_microprims ?previous () in
    print_microprims microprims;
    let micro = run_micro () in
    write_json ~canary:canary_now ~micro ~microprims ~session ~hists ~server
      ~avoid ~second_path ~dsim batch;
    if gate then
      run_gate ~previous batch
        (session @ server @ avoid.av_samples @ second_path.sp_samples
        @ dsim.ds_samples
        @ List.map (fun s -> s.mp_row) microprims)
  in
  match mode with
  | "micro" -> if json then json_run () else ignore (run_micro ())
  | "batch" ->
    let batch = run_batch () in
    print_batch batch;
    if json then
      write_json ~canary:(measure_canary ()) ~micro:[] ~microprims:[]
        ~session:[] ~hists:[] ~server:[] ~avoid:empty_avoid
        ~second_path:
          { sp_domains = 0; sp_samples = []; sp_executed = 0; sp_stolen = 0 }
        ~dsim:empty_dsim batch
  | "session" -> print_session (run_session ())
  | "server" -> print_server (run_server ())
  | "avoid" -> print_avoid (run_avoid ())
  | "shardserver" -> print_shard_server (run_shard_server ())
  | "secondpath" -> print_second_path (run_second_path ())
  | "dsim" -> print_dsim (run_dsim ())
  | "microprims" -> print_microprims (run_microprims ())
  | "experiments" ->
    run_experiments ~instances:10 ~hop_instances:10 ~distributed_instances:3 ()
  | "full" ->
    (* The paper's scale: 100 random instances per point. *)
    run_experiments ~instances:100 ~hop_instances:100 ~distributed_instances:10 ()
  | "default" ->
    ignore (run_micro ());
    run_experiments ~instances:5 ~hop_instances:5 ~distributed_instances:2 ()
  | other ->
    Printf.eprintf
      "unknown mode %s (use: micro | batch | session | server | avoid | \
       shardserver | secondpath | dsim | microprims | experiments | full)\n"
      other;
    exit 2
