(* Command-line interface to the truthful-unicast library.

   unicast lcp GRAPH --src S --dst D
   unicast pay GRAPH --src S --dst D [--scheme vcg|neighbourhood]
   unicast batch GRAPH [--root R] [--domains K]
   unicast check GRAPH --src S --dst D [--trials N]
   unicast distributed GRAPH [--root R] [--verify]
   unicast experiment NAME [--instances K] [--seed S] [--domains K]
   unicast serve GRAPH [--root R] [--model node|link] [--domains K]
   unicast listen GRAPH (--socket PATH | --port N) [--model node|link] ...
   unicast client (--socket PATH | --port N [--host H])

   GRAPH is a text file in the Graph_io format (see `unicast format`).
   Batch payments and the Figure 3 sweeps run on a Wnet_par domain pool
   sized by --domains (default: WNET_DOMAINS, else the core count);
   results are identical for every pool size. *)

open Cmdliner
open Wnet_core

let read_graph path = Wnet_graph.Graph_io.parse_file path

(* -- common args -- *)

let graph_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"GRAPH" ~doc:"Graph file.")

let src_arg =
  Arg.(required & opt (some int) None & info [ "src" ] ~docv:"NODE" ~doc:"Source node.")

let dst_arg =
  Arg.(value & opt int 0 & info [ "dst" ] ~docv:"NODE" ~doc:"Destination (default: the access point 0).")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

(* -- lcp -- *)

let lcp_cmd =
  let run path src dst =
    let g = read_graph path in
    match Unicast.run g ~src ~dst with
    | None -> (print_endline "unreachable"; 1)
    | Some r ->
      Format.printf "path: %a@.relay cost: %g@." Wnet_graph.Path.pp r.Unicast.path
        r.Unicast.lcp_cost;
      0
  in
  Cmd.v (Cmd.info "lcp" ~doc:"Least cost path between two nodes.")
    Term.(const run $ graph_arg $ src_arg $ dst_arg)

(* -- pay -- *)

let scheme_arg =
  let schemes = [ ("vcg", Payment_scheme.Vcg); ("neighbourhood", Payment_scheme.Neighbourhood) ] in
  Arg.(value & opt (enum schemes) Payment_scheme.Vcg
       & info [ "scheme" ] ~docv:"SCHEME" ~doc:"Payment scheme: $(b,vcg) or $(b,neighbourhood).")

let pay_cmd =
  let run path src dst scheme =
    let g = read_graph path in
    match Payment_scheme.run scheme g ~src ~dst with
    | None -> (print_endline "unreachable"; 1)
    | Some r ->
      Format.printf "path: %a@.relay cost: %g@." Wnet_graph.Path.pp
        r.Payment_scheme.path r.Payment_scheme.lcp_cost;
      Array.iteri
        (fun v p -> if p <> 0.0 then Format.printf "pay node %d: %g@." v p)
        r.Payment_scheme.payments;
      Format.printf "total: %g@." (Payment_scheme.total_payment r);
      0
  in
  Cmd.v (Cmd.info "pay" ~doc:"VCG payments for a unicast.")
    Term.(const run $ graph_arg $ src_arg $ dst_arg $ scheme_arg)

(* -- batch -- *)

let domains_arg =
  Arg.(value & opt (some int) None
       & info [ "domains" ] ~docv:"K"
           ~doc:"Domain pool size (default: $(b,WNET_DOMAINS), else the \
                 recommended core count).  Results are identical for every \
                 value.")

let batch_cmd =
  let root =
    Arg.(value & opt int 0 & info [ "root" ] ~docv:"NODE" ~doc:"Access point.")
  in
  let run path root domains =
    let g = read_graph path in
    Wnet_par.with_pool ?domains (fun pool ->
        let batch = Unicast.all_to_root ~pool g ~root in
        let served = ref 0 and unbounded = ref 0 and charged = ref 0.0 in
        Array.iteri
          (fun src outcome ->
            match outcome with
            | None -> ()
            | Some r ->
              incr served;
              let p = Unicast.total_payment r in
              if p < infinity then charged := !charged +. p
              else incr unbounded;
              Format.printf "src %d: path %a, charge %g@." src
                Wnet_graph.Path.pp r.Unicast.path p)
          batch;
        Format.printf "served %d/%d sources on %d domain(s), total charges %g@."
          !served
          (Wnet_graph.Graph.n g - 1)
          (Wnet_par.size pool) !charged;
        if !unbounded > 0 then
          (* A cut-vertex relay has no replacement path: VCG payment is
             unbounded unless the graph is biconnected (Sec. III-G). *)
          Format.printf
            "%d source(s) with unbounded charge (cut-vertex relay) excluded \
             from the total@."
            !unbounded);
    0
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"All-to-access-point payments in one parallel batch.")
    Term.(const run $ graph_arg $ root $ domains_arg)

(* -- check -- *)

let check_cmd =
  let trials =
    Arg.(value & opt int 500 & info [ "trials" ] ~docv:"N" ~doc:"Falsifier trials.")
  in
  let run path src dst trials seed =
    let g = read_graph path in
    let truth = Wnet_graph.Graph.costs g in
    let m = Unicast.mechanism g ~src ~dst in
    let rng = Wnet_prng.Rng.create seed in
    let ic = Wnet_mech.Properties.random_ic_violations rng m ~truth ~trials ~lie_bound:100.0 in
    let ir = Wnet_mech.Properties.ir_violations m ~truth in
    Format.printf "incentive-compatibility violations: %d@." (List.length ic);
    List.iter (Format.printf "  %a@." Wnet_mech.Properties.pp_violation) ic;
    Format.printf "individual-rationality violations: %d@." (List.length ir);
    Format.printf "biconnected: %b@." (Wnet_graph.Connectivity.is_biconnected g);
    if ic = [] && ir = [] then 0 else 1
  in
  Cmd.v (Cmd.info "check" ~doc:"Run the strategyproofness falsifiers on an instance.")
    Term.(const run $ graph_arg $ src_arg $ dst_arg $ trials $ seed_arg)

(* -- distributed -- *)

let distributed_cmd =
  let root = Arg.(value & opt int 0 & info [ "root" ] ~docv:"NODE" ~doc:"Access point.") in
  let verify = Arg.(value & flag & info [ "verify" ] ~doc:"Algorithm 2 verification.") in
  let run path root verify =
    let g = read_graph path in
    let spt = Wnet_dsim.Spt_protocol.run ~verified:verify g ~root in
    Format.printf "stage 1: %d rounds, matches centralized: %b@."
      spt.Wnet_dsim.Spt_protocol.stats.Wnet_dsim.Engine.rounds
      (Wnet_dsim.Spt_protocol.matches_centralized spt g ~root);
    let pay = Wnet_dsim.Payment_protocol.run ~verify g ~root in
    Format.printf "stage 2: %d rounds, %d broadcasts, agrees with centralized: %b@."
      pay.Wnet_dsim.Payment_protocol.stats.Wnet_dsim.Engine.rounds
      pay.Wnet_dsim.Payment_protocol.stats.Wnet_dsim.Engine.broadcasts
      (Wnet_dsim.Payment_protocol.agrees_with_centralized pay g);
    Array.iteri
      (fun i table ->
        if table <> [] then begin
          Format.printf "node %d pays:" i;
          List.iter (fun (k, p) -> Format.printf " %d:%g" k p) table;
          Format.printf "@."
        end)
      pay.Wnet_dsim.Payment_protocol.payments;
    0
  in
  Cmd.v (Cmd.info "distributed" ~doc:"Run the distributed protocols on an instance.")
    Term.(const run $ graph_arg $ root $ verify)

(* -- dsim -- *)

let dsim_cmd =
  let graph_opt =
    Arg.(value & pos 0 (some file) None
         & info [] ~docv:"GRAPH"
             ~doc:"Graph file (default: a sparse random connected $(b,gnp) \
                   instance of $(b,--n) nodes).")
  in
  let nodes =
    Arg.(value & opt int 1000
         & info [ "n" ] ~docv:"N" ~doc:"Node count of the generated instance.")
  in
  let root =
    Arg.(value & opt int 0 & info [ "root" ] ~docv:"NODE" ~doc:"Access point.")
  in
  let scenario =
    Arg.(value & opt string "payment"
         & info [ "scenario" ] ~docv:"S"
             ~doc:"$(b,payment) (stage-2 VCG payments) or $(b,costshare) \
                   (budgeted cost-sharing connectivity).")
  in
  let mode =
    Arg.(value & opt string "sync"
         & info [ "mode" ] ~docv:"M"
             ~doc:"$(b,sync) (deterministic parallel rounds) or $(b,async) \
                   (random per-message delays).")
  in
  let oracle =
    Arg.(value & flag
         & info [ "oracle" ]
             ~doc:"Cross-check the fixed point against the centralized \
                   session oracle; nonzero exit on mismatch.")
  in
  let run path n root scenario mode oracle domains seed =
    let g =
      match path with
      | Some p -> read_graph p
      | None ->
        let rng = Wnet_prng.Rng.create seed in
        Wnet_topology.Gnp.connected_graph rng ~n
          ~p:(6.0 /. float_of_int (max n 2))
          ~cost_lo:1.0 ~cost_hi:10.0
    in
    let n = Wnet_graph.Graph.n g in
    let rng = Wnet_prng.Rng.create (seed + 1) in
    let row ~domains ~oracle_ok (stats : Wnet_dsim.Engine.stats) =
      Format.printf
        "dsim scenario=%s mode=%s n=%d domains=%d rounds=%d broadcasts=%d \
         directs=%d deliveries=%d converged=%b tasks=%d/%d oracle=%s@."
        scenario mode n domains stats.Wnet_dsim.Engine.rounds
        stats.Wnet_dsim.Engine.broadcasts stats.Wnet_dsim.Engine.directs
        stats.Wnet_dsim.Engine.deliveries stats.Wnet_dsim.Engine.converged
        stats.Wnet_dsim.Engine.tasks_executed
        stats.Wnet_dsim.Engine.tasks_stolen
        (match oracle_ok with
        | None -> "skipped"
        | Some true -> "ok"
        | Some false -> "MISMATCH");
      match oracle_ok with Some false -> 1 | _ -> 0
    in
    match (scenario, mode) with
    | "payment", "sync" ->
      Wnet_par.with_pool ?domains (fun pool ->
          let o = Wnet_dsim.Payment_protocol.run ~pool g ~root in
          let ok =
            if not oracle then None
            else
              Some (Wnet_dsim.Payment_protocol.agrees_with_centralized o g)
          in
          row ~domains:(Wnet_par.size pool) ~oracle_ok:ok
            o.Wnet_dsim.Payment_protocol.stats)
    | "payment", "async" ->
      let (_, _), astats = Wnet_dsim.Payment_protocol.run_async ~rng g ~root in
      let o = Wnet_dsim.Payment_protocol.run g ~root in
      let ok =
        if not oracle then None
        else Some (Wnet_dsim.Payment_protocol.agrees_with_centralized o g)
      in
      row ~domains:1 ~oracle_ok:ok
        {
          o.Wnet_dsim.Payment_protocol.stats with
          Wnet_dsim.Engine.rounds = 0;
          deliveries = astats.Wnet_dsim.Async_engine.deliveries;
          converged = astats.Wnet_dsim.Async_engine.converged;
        }
    | "costshare", m ->
      let subscriber v = v <> root in
      let budget _ = infinity in
      let parent = Wnet_dsim.Costshare_protocol.tree_parents g ~root in
      let o =
        match m with
        | "sync" ->
          Wnet_par.with_pool ?domains (fun pool ->
              Wnet_dsim.Costshare_protocol.run ~pool ~parents:parent
                ~subscriber ~budget g ~root)
        | "async" ->
          Wnet_dsim.Costshare_protocol.run_async ~parents:parent ~rng
            ~subscriber ~budget g ~root
        | other -> failwith ("unknown mode " ^ other)
      in
      let ok =
        if not oracle then None
        else
          Some
            (Wnet_dsim.Costshare_protocol.matches_centralized o g ~parent
               ~subscriber ~budget)
      in
      row ~domains:(Option.value domains ~default:1)
        ~oracle_ok:ok o.Wnet_dsim.Costshare_protocol.stats
    | s, m -> failwith (Printf.sprintf "unknown scenario/mode %s/%s" s m)
  in
  Cmd.v
    (Cmd.info "dsim"
       ~doc:"Run a distributed-simulation scenario and print one stats row.")
    Term.(const run $ graph_opt $ nodes $ root $ scenario $ mode $ oracle
          $ domains_arg $ seed_arg)

(* -- experiment -- *)

let experiments ~instances ~seed ~csv ~pool name =
  let sweep_out ~title model =
    let points =
      Wnet_experiments.Fig3.overpayment_sweep ~instances ~pool ~seed model
    in
    if csv then
      print_endline (Wnet_stats.Table.to_csv (Wnet_experiments.Fig3.sweep_table points))
    else print_endline (Wnet_experiments.Fig3.render_sweep ~title points)
  in
  match name with
  | "fig3a" | "fig3b" ->
    sweep_out ~title:"Figure 3(a/b): UDG, kappa = 2"
      (Wnet_experiments.Fig3.Udg { kappa = 2.0 })
  | "fig3c" ->
    sweep_out ~title:"Figure 3(c): UDG, kappa = 2.5"
      (Wnet_experiments.Fig3.Udg { kappa = 2.5 })
  | "fig3d" ->
    let buckets =
      Wnet_experiments.Fig3.hop_profile ~instances ~pool ~seed
        (Wnet_experiments.Fig3.Udg { kappa = 2.0 })
    in
    if csv then
      print_endline (Wnet_stats.Table.to_csv (Wnet_experiments.Fig3.hop_table buckets))
    else
      print_endline
        (Wnet_experiments.Fig3.render_hop_profile
           ~title:"Figure 3(d): ratio vs hop distance (UDG, kappa = 2, n = 500)"
           buckets)
  | "fig3e" ->
    sweep_out ~title:"Figure 3(e): random ranges, kappa = 2"
      (Wnet_experiments.Fig3.Random_range { kappa = 2.0 })
  | "fig3f" ->
    sweep_out ~title:"Figure 3(f): random ranges, kappa = 2.5"
      (Wnet_experiments.Fig3.Random_range { kappa = 2.5 })
  | "node-model" ->
    print_endline
      (Wnet_experiments.Node_model.render
         ~title:"Ablation: node-cost model, uniform costs"
         (Wnet_experiments.Node_model.sweep ~instances ~pool ~seed ()))
  | "speed" ->
    print_endline (Wnet_experiments.Speed.render (Wnet_experiments.Speed.sweep ~seed ()))
  | "distributed" ->
    print_endline
      (Wnet_experiments.Distributed_exp.render
         (Wnet_experiments.Distributed_exp.sweep ~instances ~seed ()))
  | "collusion" ->
    print_endline
      (Wnet_experiments.Collusion_exp.render
         (Wnet_experiments.Collusion_exp.study ~instances ~pool ~seed ()))
  | "second-path" ->
    print_endline
      (Wnet_experiments.Second_path_exp.render
         (Wnet_experiments.Second_path_exp.study ~instances ~pool ~seed ()))
  | "agent-model" ->
    print_endline
      (Wnet_experiments.Agent_model_exp.render
         (Wnet_experiments.Agent_model_exp.sweep ~instances ~seed ()))
  | "relay-load" ->
    print_endline
      (Wnet_experiments.Relay_load.render
         (Wnet_experiments.Relay_load.study ~instances ~seed ()))
  | "lifetime" ->
    print_endline
      (Wnet_experiments.Lifetime_exp.render
         (Wnet_experiments.Lifetime_exp.study ~pool ~seed ()))
  | "scheme-ablation" ->
    print_endline
      (Wnet_experiments.Scheme_ablation.render
         (Wnet_experiments.Scheme_ablation.sweep ~instances ~seed ()))
  | "baselines" ->
    print_endline
      (Wnet_experiments.Baseline_exp.render_nuglet
         (Wnet_experiments.Baseline_exp.nuglet_sweep ~instances ~pool ~seed ()));
    print_newline ();
    print_endline
      (Wnet_experiments.Baseline_exp.render_watchdog
         (Wnet_experiments.Baseline_exp.watchdog_sweep ~instances ~pool ~seed ()))
  | name -> failwith ("unknown experiment " ^ name)

let experiment_cmd =
  let exp_name =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"NAME"
             ~doc:"One of: fig3a fig3b fig3c fig3d fig3e fig3f node-model speed \
                   distributed collusion scheme-ablation baselines lifetime \
                   agent-model second-path relay-load.")
  in
  let instances =
    Arg.(value & opt int 10
         & info [ "instances" ] ~docv:"K" ~doc:"Random instances per point (paper: 100).")
  in
  let csv =
    Arg.(value & flag
         & info [ "csv" ] ~doc:"Emit CSV instead of tables (Figure 3 panels only).")
  in
  let run exp_name instances seed csv domains =
    Wnet_par.with_pool ?domains (fun pool ->
        experiments ~instances ~seed ~csv ~pool exp_name);
    0
  in
  Cmd.v (Cmd.info "experiment" ~doc:"Regenerate a paper figure or study.")
    Term.(const run $ exp_name $ instances $ seed_arg $ csv $ domains_arg)

(* -- report -- *)

let report_cmd =
  let instances =
    Arg.(value & opt int 10
         & info [ "instances" ] ~docv:"K" ~doc:"Instances per point (paper: 100).")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write to FILE instead of stdout.")
  in
  let run instances seed out =
    let report = Wnet_experiments.Report.generate ~instances ~seed () in
    (match out with
    | None -> print_string report
    | Some path ->
      Wnet_experiments.Report.save ~path report;
      Format.printf "wrote %s@." path);
    0
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Run every experiment and emit a single markdown reproduction report.")
    Term.(const run $ instances $ seed_arg $ out)

(* -- generate -- *)

let generate_cmd =
  let model =
    Arg.(value & opt string "udg"
         & info [ "model" ] ~docv:"MODEL"
             ~doc:"$(b,udg) (paper region, range 300m, uniform node costs) or \
                   $(b,gnp) (connected G(n, p)).")
  in
  let nodes = Arg.(value & opt int 100 & info [ "n" ] ~docv:"N" ~doc:"Node count.") in
  let run model n seed =
    let rng = Wnet_prng.Rng.create seed in
    let g =
      match model with
      | "udg" ->
        let t = Wnet_topology.Udg.paper_instance rng ~n in
        let costs = Wnet_topology.Udg.uniform_node_costs rng ~n ~lo:1.0 ~hi:10.0 in
        Wnet_topology.Udg.node_graph t ~costs
      | "gnp" ->
        Wnet_topology.Gnp.connected_graph rng ~n ~p:(4.0 /. float_of_int (max n 1))
          ~cost_lo:1.0 ~cost_hi:10.0
      | other -> failwith ("unknown model " ^ other)
    in
    print_string (Wnet_graph.Graph_io.to_string g);
    0
  in
  Cmd.v
    (Cmd.info "generate"
       ~doc:"Emit a random instance in the graph file format (to stdout).")
    Term.(const run $ model $ nodes $ seed_arg)

(* -- stats -- *)

let stats_cmd =
  let run path =
    let g = read_graph path in
    Format.printf "%a@." Wnet_graph.Metrics.pp (Wnet_graph.Metrics.compute g);
    Format.printf "degree histogram:";
    List.iter
      (fun (d, c) -> Format.printf " %d:%d" d c)
      (Wnet_graph.Metrics.degree_histogram g);
    Format.printf "@.";
    0
  in
  Cmd.v (Cmd.info "stats" ~doc:"Topology statistics of a graph file.")
    Term.(const run $ graph_arg)

(* -- serve / listen / client -- *)

(* The Wnet_proto line protocol over stdin/stdout or a socket.  One
   incremental payment session stays alive across requests, so an
   access point can absorb cost drift and churn without re-running full
   batches: each `pay` reuses every avoidance Dijkstra the edits since
   the previous `pay` could not have touched, and a burst of edits
   folds into a single cache-invalidation pass. *)

let root_arg =
  Arg.(value & opt int 0 & info [ "root" ] ~docv:"NODE" ~doc:"Access point.")

let model_arg =
  Arg.(value & opt string "node"
       & info [ "model" ] ~docv:"MODEL"
           ~doc:"$(b,node) (Sec. II node costs: cost k c / leave k / pay) or \
                 $(b,link) (Sec. III-F directed link costs: cost u v w / \
                 join v:w .. -- u:w .. / leave k / pay).")

let load_session ~model ~pool ~root path =
  match model with
  | "node" -> Wnet_session.make ~pool ~root (`Node (read_graph path))
  | "link" ->
    Wnet_session.make ~pool ~root
      (`Link (Wnet_graph.Graph_io.parse_digraph_file path))
  | other -> failwith ("unknown model " ^ other)

(* Each request's replies are rendered by the socket server's text
   encoder, through one pay-line memo for the session, and leave in one
   flush. *)
let serve_stdin session =
  let enc = Wnet_proto.enc_create () and memo = Wnet_proto.memo_create () in
  let reply rs =
    Wnet_proto.encode_responses enc memo rs;
    output stdout (Wnet_proto.enc_buffer enc) (Wnet_proto.enc_offset enc)
      (Wnet_proto.enc_pending enc);
    Wnet_proto.enc_reset enc;
    flush stdout
  in
  reply [ Wnet_proto.greeting session ];
  let rec loop () =
    match In_channel.input_line In_channel.stdin with
    | None -> ()
    | Some line -> (
      match Wnet_proto.handle_line session line with
      | `Empty -> loop ()
      | `Reply rs ->
        reply rs;
        loop ()
      | `Quit rs -> reply rs)
  in
  loop ()

let serve_cmd =
  let run path root model domains =
    Wnet_par.with_pool ?domains (fun pool ->
        serve_stdin (load_session ~model ~pool ~root path));
    0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Incremental payment session over stdin/stdout: apply cost \
             changes and churn, re-collect payments without full batches.")
    Term.(const run $ graph_arg $ root_arg $ model_arg $ domains_arg)

let socket_arg =
  Arg.(value & opt (some string) None
       & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let port_arg =
  Arg.(value & opt (some int) None
       & info [ "port" ] ~docv:"PORT"
           ~doc:"TCP port ($(b,0) picks one; printed on startup).")

let host_arg =
  Arg.(value & opt string "127.0.0.1"
       & info [ "host" ] ~docv:"HOST" ~doc:"TCP host (default 127.0.0.1).")

let parse_addr socket port host =
  match (socket, port) with
  | Some path, None -> Wnet_server.Unix_path path
  | None, Some port -> Wnet_server.Tcp { host; port }
  | Some _, Some _ -> failwith "--socket and --port are mutually exclusive"
  | None, None -> failwith "want --socket PATH or --port PORT"

let listen_cmd =
  let idle =
    Arg.(value & opt (some float) None
         & info [ "idle-timeout" ] ~docv:"SECONDS"
             ~doc:"Disconnect a client after this long without a complete \
                   request (default: never).")
  in
  let shards_arg =
    Arg.(value & opt int 1
         & info [ "shards" ] ~docv:"N"
             ~doc:"Serve on $(docv) shards, one domain per shard, each \
                   owning a disjoint set of sessions.  Payments are \
                   bit-identical at every shard count.  Default 1: the \
                   fused single-threaded loop.")
  in
  let sessions_arg =
    Arg.(value & opt int 1
         & info [ "sessions" ] ~docv:"K"
             ~doc:"Host $(docv) independent access-point sessions, each \
                   opened on its own copy of GRAPH.  Clients start on \
                   session 0 and move with the $(b,session N) request.  \
                   Default 1.")
  in
  let run path root model domains socket port host idle_timeout shards
      nsessions =
    if shards < 1 then failwith "--shards must be at least 1";
    if nsessions < 1 then failwith "--sessions must be at least 1";
    let addr = parse_addr socket port host in
    let report (s : Wnet_server.server_stats) =
      Format.printf
        "served %d client(s), %d request(s), %d bytes in, %d bytes out@."
        s.Wnet_server.clients_served s.Wnet_server.requests
        s.Wnet_server.bytes_in s.Wnet_server.bytes_out;
      if Array.length s.Wnet_server.per_shard > 1 then
        Array.iter
          (fun (r : Wnet_server.shard_stats) ->
            Format.printf
              "shard %d: served %d client(s), %d request(s), %d bytes in, \
               %d bytes out@."
              r.Wnet_server.shard r.Wnet_server.served r.Wnet_server.requests
              r.Wnet_server.bytes_in r.Wnet_server.bytes_out)
          s.Wnet_server.per_shard
    in
    let on_listen server =
      (match Wnet_server.addr server with
      | Wnet_server.Unix_path p -> Format.printf "listening on %s@." p
      | Wnet_server.Tcp { host; port } ->
        Format.printf "listening on %s:%d@." host port);
      Format.print_flush ()
    in
    if shards = 1 then
      (* One shard serializes everything anyway, so every session can
         share one work-stealing pool for its payment fan-out. *)
      Wnet_par.with_pool ?domains (fun pool ->
          let sessions =
            Array.init nsessions (fun _ ->
                load_session ~model ~pool ~root path)
          in
          report
            (Wnet_server.run ?idle_timeout ~signals:true ~on_listen addr
               sessions))
    else begin
      (* Wnet_par pools are single-owner, and sessions now live on
         shard domains: each session runs its payments sequentially
         (par ≡ seq bit-identically), parallelism comes from shards. *)
      let sessions =
        Array.init nsessions (fun _ ->
            load_session ~model ~pool:Wnet_par.sequential ~root path)
      in
      report
        (Wnet_server.run ?idle_timeout ~shards ~signals:true ~on_listen addr
           sessions)
    end;
    0
  in
  Cmd.v
    (Cmd.info "listen"
       ~doc:"Serve incremental payment sessions to many concurrent \
             clients over a TCP or Unix-domain socket, optionally sharded \
             across domains ($(b,--shards)) with multiple access-point \
             sessions ($(b,--sessions)).  Requests attached to one session \
             interleave into one deterministic edit stream; SIGINT or \
             SIGTERM drains every shard and exits cleanly.")
    Term.(const run $ graph_arg $ root_arg $ model_arg $ domains_arg
          $ socket_arg $ port_arg $ host_arg $ idle $ shards_arg
          $ sessions_arg)

let client_cmd =
  let batch =
    Arg.(value & opt int 1
         & info [ "batch" ] ~docv:"K"
             ~doc:"Pack up to $(docv) consecutive edit lines ($(b,cost), \
                   $(b,join), $(b,rejoin), $(b,leave)) into one socket \
                   write — one batch frame with $(b,--proto) 2 — so the \
                   server coalesces them into a single invalidation \
                   burst.  Any other line (e.g. $(b,pay)) flushes the \
                   pending pack first.  Default 1: raw pass-through.")
  in
  let verify =
    Arg.(value & flag
         & info [ "verify-responses" ]
             ~doc:"Check every server response against the \
                   $(b,Wnet_proto) grammar: text lines must reprint \
                   byte-identically, decoded proto=2 frames must survive \
                   the text print/parse round-trip (guards wire-format \
                   compatibility, e.g. the stats counter layout).  \
                   Output still passes through; exits nonzero if any \
                   response fails.")
  in
  let proto =
    Arg.(value & opt int 1
         & info [ "proto" ] ~docv:"N"
             ~doc:"Wire protocol: $(b,1) (text lines, default) or \
                   $(b,2) (binary frames — the client negotiates the \
                   upgrade, encodes stdin requests as frames and prints \
                   decoded responses as the equivalent text lines; \
                   needs a proto=2-capable server).")
  in
  let run socket port host batch verify proto =
    if proto <> 1 && proto <> 2 then
      failwith "unsupported --proto (want 1 or 2)";
    let addr = parse_addr socket port host in
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let fd =
      match addr with
      | Wnet_server.Unix_path path ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX path);
        fd
      | Wnet_server.Tcp { host; port } ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        let ip =
          try Unix.inet_addr_of_string host
          with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
        in
        Unix.connect fd (Unix.ADDR_INET (ip, port));
        fd
    in
    let module B = Wnet_proto_bin in
    (* Bytes bound for the server wait in [outq] and leave only when
       select reports the socket writable, so the client always keeps
       reading replies: a server that pauses a connection on its unread
       output never finds the client blocked in a write.  Stdin is read
       only while the queue is under [out_cap]. *)
    Unix.set_nonblock fd;
    let out_cap = 65536 in
    let outq = ref (Bytes.create out_cap) and out_lo = ref 0 and out_hi = ref 0 in
    let queued () = !out_hi - !out_lo in
    let write_all b off len =
      if !out_hi + len > Bytes.length !outq then begin
        let live = queued () in
        let cap = ref (Bytes.length !outq) in
        while live + len > !cap do
          cap := 2 * !cap
        done;
        let q = if !cap = Bytes.length !outq then !outq else Bytes.create !cap in
        Bytes.blit !outq !out_lo q 0 live;
        outq := q;
        out_lo := 0;
        out_hi := live
      end;
      Bytes.blit b off !outq !out_hi len;
      out_hi := !out_hi + len
    in
    let send_queued () =
      match Unix.single_write fd !outq !out_lo (queued ()) with
      | n ->
        out_lo := !out_lo + n;
        if !out_lo = !out_hi then begin
          out_lo := 0;
          out_hi := 0
        end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    in
    (* Shuttle stdin -> socket and socket -> stdout until the server
       closes (it does after `quit`, on idle timeout, and on shutdown).
       Stdin EOF half-closes, so pending replies still arrive.

       With --batch K > 1, stdin is re-chunked on line boundaries: up to
       K consecutive edit lines accumulate locally and leave in one
       write — one proto=2 batch frame — landing at the server inside
       one read so its session coalesces them into a single
       invalidation pass.  A non-edit line (pay, stats, quit, ...) must
       observe every edit before it, so it flushes the pending pack
       first.  A trailing pack that never meets a non-edit line is
       flushed on stdin EOF and, as a last resort, when the server says
       bye — it must never be dropped silently. *)
    let send_str s = write_all (Bytes.of_string s) 0 (String.length s) in
    let pack = Buffer.create 4096 in
    let packed_edits = ref 0 in
    let flush_pack () =
      if Buffer.length pack > 0 then begin
        send_str (Buffer.contents pack);
        Buffer.clear pack;
        packed_edits := 0
      end
    in
    let is_edit line =
      match String.split_on_char ' ' (String.trim line) with
      | ("cost" | "join" | "rejoin" | "leave") :: _ -> true
      | _ -> false
    in
    let feed_line line =
      Buffer.add_string pack line;
      Buffer.add_char pack '\n';
      if is_edit line then begin
        incr packed_edits;
        if !packed_edits >= batch then flush_pack ()
      end
      else flush_pack ()
    in
    (* --proto 2: stdin lines are parsed and shipped as binary frames;
       edits accumulate into one batch frame per --batch K. *)
    let benc = B.enc_create () in
    let bdec = B.dec_create () in
    let bview = B.make_view () in
    let pending = ref [] (* reversed pending edit requests *) in
    let npending = ref 0 in
    let flush_benc () =
      let n = B.enc_pending benc in
      if n > 0 then begin
        write_all (B.enc_buffer benc) (B.enc_offset benc) n;
        B.enc_consume benc n
      end
    in
    let encode_pending () =
      if !npending > 0 then begin
        B.encode_requests benc (List.rev !pending);
        pending := [];
        npending := 0
      end
    in
    let bin_send_req r =
      let edit =
        match r with
        | Wnet_proto.Cost_node _ | Wnet_proto.Cost_link _ | Wnet_proto.Join _
        | Wnet_proto.Rejoin _ | Wnet_proto.Leave _ ->
          true
        | _ -> false
      in
      if edit && batch > 1 then begin
        pending := r :: !pending;
        incr npending;
        if !npending >= batch then begin
          encode_pending ();
          flush_benc ()
        end
      end
      else begin
        encode_pending ();
        B.encode_request benc r;
        flush_benc ()
      end
    in
    let bin_feed_line line =
      match Wnet_proto.parse_request line with
      | Ok None -> ()
      | Error m ->
        (* what a server would answer; no point shipping garbage *)
        print_endline (Wnet_proto.print_response (Wnet_proto.Err m))
      | Ok (Some r) -> bin_send_req r
    in
    let line_sink = if proto = 2 then bin_feed_line else feed_line in
    let partial = Buffer.create 256 in
    let feed_chunk s =
      Buffer.add_string partial s;
      let text = Buffer.contents partial in
      Buffer.clear partial;
      let len = String.length text in
      let start = ref 0 in
      (try
         while true do
           let nl = String.index_from text !start '\n' in
           line_sink (String.sub text !start (nl - !start));
           start := nl + 1
         done
       with Not_found -> ());
      if !start < len then Buffer.add_substring partial text !start (len - !start)
    in
    let feed_eof () =
      if Buffer.length partial > 0 then begin
        line_sink (Buffer.contents partial);
        Buffer.clear partial
      end;
      if proto = 2 then begin
        encode_pending ();
        flush_benc ()
      end
      else flush_pack ()
    in
    (* The satellite of the pack machinery: on ANY path out of the
       shuttle loop, push complete packed edits out before giving up —
       the peer may already be gone, which is fine, but the pack must
       not evaporate locally. *)
    let flush_trailing () =
      try
        if proto = 2 then begin
          encode_pending ();
          flush_benc ()
        end
        else flush_pack ();
        if queued () > 0 then send_queued ()
      with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()
    in
    (* --verify-responses: hold every server response to the
       print/parse round-trip.  A canonical text server emits exactly
       [print_response r] per line, so [parse_response] followed by
       [print_response] must reproduce the input bytes; a decoded
       proto=2 frame must survive the same text round-trip. *)
    let verify_ok = ref true in
    let server_partial = Buffer.create 256 in
    let verify_line line =
      let complaint =
        match Wnet_proto.parse_response line with
        | Error m -> Some m
        | Ok r ->
          let printed = Wnet_proto.print_response r in
          if String.equal printed line then None
          else Some (Printf.sprintf "reprints as %S" printed)
      in
      match complaint with
      | None -> ()
      | Some m ->
        verify_ok := false;
        Printf.eprintf "verify-responses: %S: %s\n%!" line m
    in
    let verify_chunk s =
      Buffer.add_string server_partial s;
      let text = Buffer.contents server_partial in
      Buffer.clear server_partial;
      let len = String.length text in
      let start = ref 0 in
      (try
         while true do
           let nl = String.index_from text !start '\n' in
           verify_line (String.sub text !start (nl - !start));
           start := nl + 1
         done
       with Not_found -> ());
      if !start < len then
        Buffer.add_substring server_partial text !start (len - !start)
    in
    (* Server -> stdout.  proto=1 passes bytes through; proto=2 reads
       text lines until the server acks the upgrade with a
       `ready proto=2' banner, then decodes frames and prints each
       response as its text line — downstream consumers see the same
       transcript either way. *)
    let bin_ready = ref false in
    let stream_ok = ref true in
    let rec drain_frames () =
      match B.decode_response bdec bview with
      | `Resp r ->
        let line = Wnet_proto.print_response r in
        print_endline line;
        flush stdout;
        if verify then verify_line line;
        drain_frames ()
      | `Need_more -> true
      | `Corrupt m ->
        Printf.eprintf "client: corrupt frame from server: %s\n%!" m;
        stream_ok := false;
        false
    in
    let in_partial = Buffer.create 256 in
    let rec on_text_chunk text start len =
      if start >= len then true
      else if !bin_ready then begin
        B.dec_feed_string bdec text start (len - start);
        drain_frames ()
      end
      else
        match String.index_from_opt text start '\n' with
        | None ->
          Buffer.add_substring in_partial text start (len - start);
          true
        | Some nl ->
          let line = String.sub text start (nl - start) in
          print_endline line;
          flush stdout;
          if verify then verify_line line;
          (match Wnet_proto.parse_response line with
          | Ok (Wnet_proto.Ready { proto = p; _ }) when p = B.version ->
            bin_ready := true
          | _ -> ());
          on_text_chunk text (nl + 1) len
    in
    let on_server_chunk s =
      if proto = 1 then begin
        if verify then verify_chunk s;
        print_string s;
        flush stdout;
        true
      end
      else if !bin_ready then begin
        B.dec_feed_string bdec s 0 (String.length s);
        drain_frames ()
      end
      else begin
        Buffer.add_string in_partial s;
        let text = Buffer.contents in_partial in
        Buffer.clear in_partial;
        on_text_chunk text 0 (String.length text)
      end
    in
    (* pipeline the upgrade: the server answers the text request first,
       then decodes everything behind it as frames *)
    if proto = 2 then
      send_str (Wnet_proto.print_request (Wnet_proto.Proto { proto = 2 }) ^ "\n");
    let buf = Bytes.create 4096 and rbuf = Bytes.create 65536 in
    (* Stdin EOF half-closes the socket once the queue has drained. *)
    let shut = ref false in
    let rec loop stdin_open =
      if (not stdin_open) && queued () = 0 && not !shut then begin
        Unix.shutdown fd Unix.SHUTDOWN_SEND;
        shut := true
      end;
      let want_stdin = stdin_open && queued () < out_cap in
      let rs = if want_stdin then [ Unix.stdin; fd ] else [ fd ] in
      let ws = if queued () > 0 then [ fd ] else [] in
      match Unix.select rs ws [] (-1.0) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop stdin_open
      | readable, writable, _ ->
        if writable <> [] then send_queued ();
        let server_open =
          if List.mem fd readable then (
            match Unix.read fd rbuf 0 (Bytes.length rbuf) with
            | 0 -> false
            | n -> on_server_chunk (Bytes.sub_string rbuf 0 n)
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> true
            | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _)
              -> false)
          else true
        in
        if server_open then
          if want_stdin && List.mem Unix.stdin readable then (
            match Unix.read Unix.stdin buf 0 4096 with
            | 0 ->
              if batch > 1 || proto = 2 then feed_eof ();
              loop false
            | n ->
              if batch > 1 || proto = 2 then
                feed_chunk (Bytes.sub_string buf 0 n)
              else write_all buf 0 n;
              loop true)
          else loop stdin_open
        else flush_trailing ()
    in
    (try loop true
     with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
       (* server went away mid-write; its remaining replies are gone *)
       ());
    Unix.close fd;
    if verify && Buffer.length server_partial > 0 then
      verify_line (Buffer.contents server_partial);
    if !verify_ok && !stream_ok then 0 else 1
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Connect to a $(b,unicast listen) server and shuttle \
             stdin/stdout over the socket (a scriptable netcat).  With \
             $(b,--batch) K, edit lines are packed K per write to drive \
             the server's burst-coalescing path from the wire side; \
             with $(b,--proto) 2 the connection is upgraded to the \
             binary frame codec and the pack travels as one batch \
             frame.")
    Term.(const run $ socket_arg $ port_arg $ host_arg $ batch $ verify
          $ proto)

(* -- format -- *)

let format_cmd =
  let run () =
    print_endline "Graph file format (one declaration per line, # comments):";
    print_endline "  node <id> <cost>     declare a node and its relay cost";
    print_endline "  edge <u> <v>         undirected radio link";
    print_endline "  link <u> <v> <w>     directed link with power cost (digraph format)";
    print_endline "";
    print_endline "Example (the paper's Figure 2 network):";
    print_string
      (Wnet_graph.Graph_io.to_string Examples.fig2.Examples.graph);
    0
  in
  Cmd.v (Cmd.info "format" ~doc:"Describe the graph file format.") Term.(const run $ const ())

let () =
  let doc = "Truthful low-cost unicast in selfish wireless networks (IPDPS 2004)" in
  let info = Cmd.info "unicast" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            lcp_cmd; pay_cmd; batch_cmd; check_cmd; distributed_cmd; dsim_cmd;
            experiment_cmd;
            report_cmd; generate_cmd; stats_cmd; format_cmd; serve_cmd;
            listen_cmd; client_cmd;
          ]))
