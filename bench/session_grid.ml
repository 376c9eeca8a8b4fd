(* Session grid: bursts of k random link-cost edits, each followed by a
   payments call, on one link-model session.

     dune exec bench/session_grid.exe -- [SECONDS] [SEED]

   Instances are paper UDGs (2000 m square, 300 m range, kappa = 2),
   connected, root 0; an edit re-declares a random link at its original
   cost times U[0.9, 1.1], so the topology does not drift.  For every
   (n, k) cell the loop runs for about SECONDS (default 1.5) of process
   CPU time and prints the mean CPU ms per burst-plus-payments op.  The
   seed (default 1) fixes the instance and the edit stream, so two
   checkouts given the same arguments replay the same ops: run them
   alternately, pinned to one core, to compare them cell by cell. *)

module S = Wnet_session.Link_session

let cell ~seconds ~seed ~n ~k =
  let rng = Wnet_prng.Rng.create seed in
  let udg =
    match
      Wnet_topology.Udg.generate_connected rng
        ~region:Wnet_geom.Region.paper_region ~n ~range:300.0 ~max_tries:1000
    with
    | Some u -> u
    | None -> failwith "session_grid: no connected instance"
  in
  let g =
    Wnet_topology.Udg.link_graph udg
      ~model:(Wnet_geom.Power.path_loss_only ~kappa:2.0)
  in
  let links = Array.of_list (Wnet_graph.Digraph.links g) in
  let s = S.create g ~root:0 in
  ignore (S.payments s);
  let op () =
    for _ = 1 to k do
      let u, v, w = links.(Wnet_prng.Rng.int rng (Array.length links)) in
      S.set_cost s u v (w *. Wnet_prng.Rng.float_range rng 0.9 1.1)
    done;
    ignore (S.payments s)
  in
  for _ = 1 to 20 do
    op ()
  done;
  let t0 = Sys.time () in
  let ops = ref 0 in
  while Sys.time () -. t0 < seconds do
    op ();
    incr ops
  done;
  (Sys.time () -. t0) *. 1e3 /. float_of_int !ops, !ops

let () =
  let arg i d = if Array.length Sys.argv > i then Sys.argv.(i) else d in
  let seconds = float_of_string (arg 1 "1.5") in
  let seed = int_of_string (arg 2 "1") in
  List.iter
    (fun n ->
      List.iter
        (fun k ->
          let ms, ops = cell ~seconds ~seed ~n ~k in
          Printf.printf "n=%d burst=%d cpu_ms_per_op=%.4f ops=%d\n%!" n k ms ops)
        [ 1; 4; 32 ])
    [ 200; 500 ]
