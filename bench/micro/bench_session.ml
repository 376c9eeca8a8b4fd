let () = Wnet_microbench.run_family "session" (Wnet_microbench.session ())
