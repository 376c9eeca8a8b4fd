open Wnet_graph

type algo = Naive | Fast

type t = {
  src : int;
  dst : int;
  path : Path.t;
  lcp_cost : float;
  relay_pay : float array;
  charge : float;
}

let of_replacements g (res : Avoid.result) ~src ~dst =
  let path = res.Avoid.path in
  let relay_pay =
    Array.init
      (max 0 (Array.length path - 2))
      (fun i ->
        let l = i + 1 in
        res.Avoid.replacement.(l) -. res.Avoid.lcp_cost +. Graph.cost g path.(l))
  in
  {
    src;
    dst;
    path;
    lcp_cost = res.Avoid.lcp_cost;
    relay_pay;
    charge = Wnet_session.relay_charge path relay_pay;
  }

let run ?algo g ~src ~dst =
  let algo =
    match algo with
    | Some a -> a
    | None -> if Graph.all_positive_costs g then Fast else Naive
  in
  let res =
    match algo with
    | Naive -> Avoid.replacement_costs_naive g ~src ~dst
    | Fast -> Avoid.replacement_costs_fast g ~src ~dst
  in
  Option.map (fun r -> of_replacements g r ~src ~dst) res

let total_payment r = r.charge

let payment_to r v = Wnet_session.relay_payment r.path r.relay_pay v

let relays r = Array.to_list (Path.relays r.path)

let utility r ~truth k =
  let relaying = Path.mem r.path k && k <> r.src && k <> r.dst in
  payment_to r k -. (if relaying then truth.(k) else 0.0)

let overpayment r = total_payment r -. r.lcp_cost

let check_packets packets =
  if packets < 0 then invalid_arg "Unicast: negative packet count"

let session_payment_to r ~packets k =
  check_packets packets;
  float_of_int packets *. payment_to r k

let session_charge r ~packets =
  check_packets packets;
  float_of_int packets *. total_payment r

let all_to_root ?(pool = Wnet_par.sequential) g ~root =
  let n = Graph.n g in
  if root < 0 || root >= n then invalid_arg "Unicast.all_to_root";
  (* A one-shot session: the shared from-root tree, one region-only
     avoidance fill per relay over per-domain scratches, positional
     merge — delegated to the incremental engine ([Graph.t] is
     immutable, so sharing is free). *)
  let module S = Wnet_session.Node_session in
  let s = S.create ~pool g ~root in
  Array.map
    (Option.map (fun (o : S.outcome) ->
         {
           src = o.S.src;
           dst = root;
           path = o.S.path;
           lcp_cost = o.S.lcp_cost;
           relay_pay = o.S.relay_pay;
           charge = o.S.charge;
         }))
    (S.payments s)

let solve_instance g ~src ~dst ~excluded (d : Wnet_mech.Profile.t) =
  let g = Graph.with_costs g d in
  let forbidden v = Option.fold ~none:false ~some:(fun e -> v = e) excluded in
  if Option.fold ~none:false ~some:(fun e -> e = src || e = dst) excluded then
    (* Excluding an endpoint makes no sense; endpoints are not agents. *)
    invalid_arg "Unicast: cannot exclude an endpoint";
  let tree = Dijkstra.node_weighted ~forbidden g ~source:src in
  match Dijkstra.path_to tree dst with
  | None -> None
  | Some path ->
    let used = Array.make (Graph.n g) false in
    Array.iter (fun v -> used.(v) <- true) (Path.relays path);
    Some { Wnet_mech.Vcg.cost = Dijkstra.dist tree dst; used }

let vcg_problem g ~src ~dst =
  {
    Wnet_mech.Vcg.n_agents = Graph.n g;
    solve = (fun d -> solve_instance g ~src ~dst ~excluded:None d);
    solve_without =
      (fun k d ->
        if k = src || k = dst then solve_instance g ~src ~dst ~excluded:None d
        else solve_instance g ~src ~dst ~excluded:(Some k) d);
  }

let mechanism g ~src ~dst =
  Wnet_mech.Vcg.mechanism
    ~name:(Printf.sprintf "unicast-vcg(%d->%d)" src dst)
    (vcg_problem g ~src ~dst)
