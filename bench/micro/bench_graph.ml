let () = Wnet_microbench.run_family "graph" (Wnet_microbench.graph ())
