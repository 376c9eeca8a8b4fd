open Wnet_graph

type t = {
  src : int;
  dst : int;
  path : Path.t;
  lcp_cost : float;
  relay_cost : float;
  relay_pay : float array;
  charge : float;
}

let validate g ~src ~dst =
  let n = Digraph.n g in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Link_cost: endpoint out of range";
  if src = dst then invalid_arg "Link_cost: src = dst"

let build_result g ~src ~dst ~path ~lcp_cost ~avoid_dist =
  (* [avoid_dist k] = cost of the best src->dst path with node k silenced. *)
  let len = Array.length path in
  let relay_pay =
    Array.init (max 0 (len - 2)) (fun i ->
        let k = path.(i + 1) in
        let used_link = Digraph.weight g k path.(i + 2) in
        let delta = avoid_dist k -. lcp_cost in
        used_link +. delta)
  in
  let first_link = if len >= 2 then Digraph.weight g path.(0) path.(1) else 0.0 in
  {
    src;
    dst;
    path;
    lcp_cost;
    relay_cost = lcp_cost -. first_link;
    relay_pay;
    charge = Wnet_session.relay_charge path relay_pay;
  }

let run g ~src ~dst =
  validate g ~src ~dst;
  let tree = Dijkstra.link_weighted g src in
  match Dijkstra.path_to tree dst with
  | None -> None
  | Some path ->
    let lcp_cost = Dijkstra.dist tree dst in
    let avoid_dist k =
      let silenced = Digraph.silence_node g k in
      let t = Dijkstra.link_weighted silenced src in
      Dijkstra.dist t dst
    in
    Some (build_result g ~src ~dst ~path ~lcp_cost ~avoid_dist)

let total_payment r = r.charge

let payment_to r v = Wnet_session.relay_payment r.path r.relay_pay v

type batch = {
  root : int;
  to_root_dist : float array;
  results : t option array;
}

let all_to_root ?(pool = Wnet_par.sequential) g ~root =
  if root < 0 || root >= Digraph.n g then invalid_arg "Link_cost.all_to_root";
  (* A one-shot session: the shared reversed tree, one region-only
     avoidance fill per relay over per-domain scratches, the relay-major
     assembly — delegated to the incremental engine, which works on its
     own copy of [g] (three array copies). *)
  let module S = Wnet_session.Link_session in
  let s = S.create ~pool g ~root in
  let b = S.payments s in
  {
    root = b.S.root;
    to_root_dist = b.S.to_root_dist;
    results =
      Array.map
        (Option.map (fun (o : S.outcome) ->
             {
               src = o.S.src;
               dst = root;
               path = o.S.path;
               lcp_cost = o.S.lcp_cost;
               relay_cost = o.S.relay_cost;
               relay_pay = o.S.relay_pay;
               charge = o.S.charge;
             }))
        b.S.results;
  }

let ic_spot_check rng g ~src ~dst ~trials =
  validate g ~src ~dst;
  let true_links = Digraph.links g in
  let true_utility_of result k =
    (* Node k's true utility: payment received minus the true cost of the
       link it transmits on (0 if it is not on the path or is the dst). *)
    let path = result.path in
    let len = Array.length path in
    let rec used l =
      if l >= len - 1 then None
      else if path.(l) = k then Some (Digraph.weight g k path.(l + 1))
      else used (l + 1)
    in
    match used 0 with
    | Some w when k <> dst -> payment_to result k -. w
    | _ -> payment_to result k
  in
  match run g ~src ~dst with
  | None -> []
  | Some honest ->
    let violations = ref [] in
    let n = Digraph.n g in
    for _ = 1 to trials do
      let k = Wnet_prng.Rng.int rng n in
      (* Relays only: the source is the payer (its incentives are the
         subject of the Fig. 2 / Algorithm 2 analysis, not of this VCG
         claim) and the destination never transmits. *)
      if k <> dst && k <> src then begin
        (* Deviate node k's whole declared vector. *)
        let lie (u, v, w) =
          if u <> k then (u, v, w)
          else
            match Wnet_prng.Rng.int rng 4 with
            | 0 -> (u, v, w /. 2.0)
            | 1 -> (u, v, w *. (1.0 +. Wnet_prng.Rng.float rng 3.0))
            | 2 -> (u, v, Wnet_prng.Rng.float rng (1.0 +. (2.0 *. w)))
            | _ -> (u, v, infinity)
        in
        let g' = Digraph.create ~n ~links:(List.map lie true_links) in
        match run g' ~src ~dst with
        | None ->
          (* Lying so hard the network disconnects gains nothing. *)
          ()
        | Some deviant ->
          let honest_u = true_utility_of honest k in
          let deviant_u = true_utility_of deviant k in
          if deviant_u > honest_u +. (1e-9 *. (1.0 +. Float.abs honest_u)) then
            violations := (k, deviant_u -. honest_u) :: !violations
      end
    done;
    List.rev !violations
