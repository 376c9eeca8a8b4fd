let () =
  let trees, words = Wnet_microbench.tree_solvers () in
  List.iter (fun p -> Wnet_microbench.check_alloc_at_most "dijkstra" p words) trees;
  Wnet_microbench.run_family "dijkstra" (Wnet_microbench.dijkstra () @ trees)
