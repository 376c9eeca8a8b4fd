open Wnet_graph

type t = {
  src : int;
  dst : int;
  path_nodes : int array;
  path_edges : int array;
  dist : float;
  payments : float array;
}

type algo = Naive | Fast

let run ?(algo = Fast) g ~src ~dst =
  let res =
    match algo with
    | Fast -> Edge_avoid.replacement_costs_fast g ~src ~dst
    | Naive -> Edge_avoid.replacement_costs_naive g ~src ~dst
  in
  Option.map
    (fun (r : Edge_avoid.result) ->
      let payments = Array.make (Egraph.m g) 0.0 in
      Array.iteri
        (fun l e ->
          payments.(e) <-
            r.Edge_avoid.replacement.(l)
            -. (r.Edge_avoid.dist -. Egraph.weight g e))
        r.Edge_avoid.path_edges;
      {
        src;
        dst;
        path_nodes = r.Edge_avoid.path_nodes;
        path_edges = r.Edge_avoid.path_edges;
        dist = r.Edge_avoid.dist;
        payments;
      })
    res

let total_payment r = Wnet_session.sum_payments r.payments

let payment_to_edge r e = r.payments.(e)

let used r e = Array.exists (fun e' -> e' = e) r.path_edges

let utility r ~truth e =
  r.payments.(e) -. (if used r e then truth.(e) else 0.0)

let mechanism g ~src ~dst =
  Wnet_mech.Mechanism.make
    ~name:(Printf.sprintf "edge-unicast-vcg(%d->%d)" src dst)
    ~run:(fun d ->
      match run (Egraph.with_weights g d) ~src ~dst with
      | None -> None
      | Some r ->
        let used_mask = Array.make (Egraph.m g) false in
        Array.iter (fun e -> used_mask.(e) <- true) r.path_edges;
        Some ({ Wnet_mech.Vcg.cost = r.dist; used = used_mask }, r.payments))
    ~valuation:(fun e sol c -> if sol.Wnet_mech.Vcg.used.(e) then -.c else 0.0)
