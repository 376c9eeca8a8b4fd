open Wnet_graph

type scheme =
  | Vcg
  | Neighbourhood
  | Collusion_sets of (int -> int list)

type t = {
  scheme_used : scheme;
  src : int;
  dst : int;
  path : Path.t;
  lcp_cost : float;
  payments : float array;
}

let removal_set scheme g ~src ~dst k =
  let raw =
    match scheme with
    | Vcg -> [ k ]
    | Neighbourhood -> k :: Array.to_list (Graph.neighbors g k)
    | Collusion_sets q -> k :: q k
  in
  List.sort_uniq compare (List.filter (fun v -> v <> src && v <> dst) raw)

let run scheme g ~src ~dst =
  let n = Graph.n g in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Payment_scheme.run: endpoint out of range";
  if src = dst then invalid_arg "Payment_scheme.run: src = dst";
  let tree = Dijkstra.node_weighted g ~source:src in
  match Dijkstra.path_to tree dst with
  | None -> None
  | Some path ->
    let lcp_cost = Dijkstra.dist tree dst in
    let on_path = Array.make n false in
    Array.iter (fun v -> on_path.(v) <- true) path;
    let payments = Array.make n 0.0 in
    (* Pivot term for node k: the LCP cost once k's whole collusion set is
       out of the graph.  Worth computing only where it can differ from
       the base LCP cost: on-path nodes, and (for the wider schemes) nodes
       whose removal set intersects the path. *)
    let price k =
      if k = src || k = dst then ()
      else begin
        let removed = removal_set scheme g ~src ~dst k in
        let touches_path = List.exists (fun v -> on_path.(v)) removed in
        if touches_path then begin
          let forbidden =
            let dead = Array.make n false in
            List.iter (fun v -> dead.(v) <- true) removed;
            fun v -> dead.(v)
          in
          let t = Dijkstra.node_weighted ~forbidden g ~source:src in
          let pivot = Dijkstra.dist t dst in
          let x_k = if on_path.(k) then Graph.cost g k else 0.0 in
          payments.(k) <- pivot -. lcp_cost +. x_k
        end
      end
    in
    for k = 0 to n - 1 do
      price k
    done;
    Some { scheme_used = scheme; src; dst; path; lcp_cost; payments }

let total_payment r = Wnet_session.sum_payments r.payments

let payment_to r v = r.payments.(v)

let utility r ~truth k =
  let relaying = Path.mem r.path k && k <> r.src && k <> r.dst in
  r.payments.(k) -. (if relaying then truth.(k) else 0.0)

let mechanism scheme g ~src ~dst =
  let name =
    match scheme with
    | Vcg -> "unicast-vcg"
    | Neighbourhood -> "unicast-neighbourhood-resistant"
    | Collusion_sets _ -> "unicast-set-resistant"
  in
  Wnet_mech.Mechanism.make
    ~name:(Printf.sprintf "%s(%d->%d)" name src dst)
    ~run:(fun d ->
      match run scheme (Graph.with_costs g d) ~src ~dst with
      | None -> None
      | Some r ->
        let used = Array.make (Graph.n g) false in
        Array.iter (fun v -> used.(v) <- true) (Path.relays r.path);
        Some ({ Wnet_mech.Vcg.cost = r.lcp_cost; used }, r.payments))
    ~valuation:(fun i sol c -> if sol.Wnet_mech.Vcg.used.(i) then -.c else 0.0)
