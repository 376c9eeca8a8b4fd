(* Experiment harness: regenerates every panel of Figure 3, the
   studies around it and the worked examples of Figures 2 and 4.

     dune exec bench/main.exe -- experiments  every panel, 10 instances per point
     dune exec bench/main.exe -- full         paper scale, 100 instances per point

   With no mode it runs [experiments].  EXPERIMENTS.md records a full
   run.  Timing lives elsewhere: perfbench/ measures the served path
   and the batch end to end, and bench/micro/ times single primitives
   with their allocation assertions. *)

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
  match List.tl (Array.to_list Sys.argv) with
  | [] | [ "experiments" ] ->
    run_experiments ~instances:10 ~hop_instances:10 ~distributed_instances:3 ()
  | [ "full" ] ->
    (* The paper's scale: 100 random instances per point. *)
    run_experiments ~instances:100 ~hop_instances:100 ~distributed_instances:10 ()
  | _ ->
    prerr_endline "usage: main.exe [experiments | full]";
    exit 2
