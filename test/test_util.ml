(* Shared helpers for the test suites. *)

let approx ?(eps = 1e-9) a b =
  (a = b)
  || (a = infinity && b = infinity)
  || (Float.is_nan a && Float.is_nan b)
  || Float.abs (a -. b) <= eps *. (1.0 +. Float.max (Float.abs a) (Float.abs b))

let float_approx =
  Alcotest.testable
    (fun ppf x -> Format.fprintf ppf "%.12g" x)
    (fun a b -> approx a b)

let check_float = Alcotest.check float_approx

let rng seed = Wnet_prng.Rng.create seed

(* Row [u] of a digraph as [(target, weight)] pairs, read off its CSR
   arrays: a list, so it outlives later edits to the graph. *)
let row g u =
  let { Wnet_graph.Digraph.row_off; col; wgt } = Wnet_graph.Digraph.csr g in
  List.init (row_off.(u + 1) - row_off.(u)) (fun i ->
      (col.(row_off.(u) + i), wgt.(row_off.(u) + i)))

(* A connected random graph with strictly positive costs, for property
   tests: ring backbone + random chords. *)
let random_ring_graph ?(min_n = 4) ?(max_n = 40) r =
  let n = min_n + Wnet_prng.Rng.int r (max_n - min_n + 1) in
  let costs = Array.init n (fun _ -> 0.1 +. Wnet_prng.Rng.float r 10.0) in
  let edges = ref (List.init n (fun v -> (v, (v + 1) mod n))) in
  let extra = Wnet_prng.Rng.int r (2 * n) in
  for _ = 1 to extra do
    let u = Wnet_prng.Rng.int r n and v = Wnet_prng.Rng.int r n in
    if u <> v then edges := (u, v) :: !edges
  done;
  Wnet_graph.Graph.create ~costs ~edges:!edges

(* Sparse random graph (tree + few chords): node removal often
   disconnects, exercising the infinity paths. *)
let random_sparse_graph ?(min_n = 4) ?(max_n = 30) r =
  let n = min_n + Wnet_prng.Rng.int r (max_n - min_n + 1) in
  let costs = Array.init n (fun _ -> 0.05 +. Wnet_prng.Rng.float r 5.0) in
  let edges = ref [] in
  for v = 1 to n - 1 do
    edges := (v, Wnet_prng.Rng.int r v) :: !edges
  done;
  let extra = Wnet_prng.Rng.int r 4 in
  for _ = 1 to extra do
    let u = Wnet_prng.Rng.int r n and v = Wnet_prng.Rng.int r n in
    if u <> v then edges := (u, v) :: !edges
  done;
  Wnet_graph.Graph.create ~costs ~edges:!edges

let qcheck_case ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* QCheck generator wrapping one of our seeded graph generators: we
   generate a seed and derive the structure, which shrinks poorly but
   keeps generation deterministic and cheap. *)
let seed_gen = QCheck2.Gen.int_range 0 1_000_000

(* The dense per-node payment vector a path-aligned outcome stands for:
   relay [path.(i + 1)] is paid [relay_pay.(i)], every other node
   [+0.0].  Built here, independently of lib/, for the assertions that
   compare node by node. *)
let dense_payments ~n (path : int array) relay_pay =
  let p = Array.make n 0.0 in
  Array.iteri (fun i x -> p.(path.(i + 1)) <- x) relay_pay;
  p

(* The charge the dense vector stands for, folded left from [0.0] the
   way the paper's sum reads: the bit pattern every [charge] must
   reproduce. *)
let dense_charge ~n path relay_pay =
  Array.fold_left ( +. ) 0.0 (dense_payments ~n path relay_pay)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ---------------- engine outcomes against Payment_ref ---------------- *)

let floats_equal a b =
  Array.length a = Array.length b && Array.for_all2 Float.equal a b

(* The first difference between an engine's per-source outcomes and the
   reference's, every field compared with [Float.equal]; [None] when
   they agree.  [fields] reads an engine outcome as (source, path, path
   cost, relay cost when the engine reports one, relay payments,
   charge). *)
let ref_diff (r : Payment_ref.batch) fields got =
  let n = Array.length r.Payment_ref.results in
  let rec go s =
    if s = n then None
    else
      match (got.(s), r.Payment_ref.results.(s)) with
      | None, None -> go (s + 1)
      | Some o, Some (e : Payment_ref.outcome) ->
        let src, path, lcp_cost, relay_cost, relay_pay, charge = fields o in
        if
          src = e.src && path = e.path
          && Float.equal lcp_cost e.lcp_cost
          && Option.fold ~none:true ~some:(Float.equal e.relay_cost) relay_cost
          && floats_equal relay_pay e.relay_pay
          && Float.equal charge e.charge
        then go (s + 1)
        else
          Some
            (Printf.sprintf "source %d: charge %h, reference %h" s charge
               e.charge)
      | Some _, None -> Some (Printf.sprintf "source %d served, not by the reference" s)
      | None, Some _ -> Some (Printf.sprintf "source %d served by the reference only" s)
  in
  if Array.length got <> n then
    Some (Printf.sprintf "%d outcomes, reference %d" (Array.length got) n)
  else go 0

(* Inside a qcheck property: fail it on a difference, naming [what]. *)
let fail_on_diff what = function
  | None -> ()
  | Some m -> QCheck2.Test.fail_reportf "%s: %s" what m

let to_root_differs dist (r : Payment_ref.batch) =
  not (floats_equal dist r.Payment_ref.to_root_dist)

let link_cost_diff (b : Wnet_core.Link_cost.batch) r =
  let module LC = Wnet_core.Link_cost in
  if to_root_differs b.LC.to_root_dist r then
    Some "to_root_dist differs from the reference"
  else
    ref_diff r
      (fun (o : LC.t) ->
        (o.LC.src, o.LC.path, o.LC.lcp_cost, Some o.LC.relay_cost, o.LC.relay_pay,
         o.LC.charge))
      b.LC.results

let link_session_diff (b : Wnet_session.Link_session.batch) r =
  let module LS = Wnet_session.Link_session in
  if to_root_differs b.LS.to_root_dist r then
    Some "to_root_dist differs from the reference"
  else
    ref_diff r
      (fun (o : LS.outcome) ->
        (o.LS.src, o.LS.path, o.LS.lcp_cost, Some o.LS.relay_cost, o.LS.relay_pay,
         o.LS.charge))
      b.LS.results

let unicast_diff (a : Wnet_core.Unicast.t option array) r =
  let module U = Wnet_core.Unicast in
  ref_diff r
    (fun (o : U.t) ->
      (o.U.src, o.U.path, o.U.lcp_cost, None, o.U.relay_pay, o.U.charge))
    a

let node_session_diff (a : Wnet_session.Node_session.outcome option array) r =
  let module NS = Wnet_session.Node_session in
  ref_diff r
    (fun (o : NS.outcome) ->
      (o.NS.src, o.NS.path, o.NS.lcp_cost, None, o.NS.relay_pay, o.NS.charge))
    a

(* The relays some source pays [infinity], ascending: what an engine's
   [unbounded_relays] must report. *)
let ref_unbounded (r : Payment_ref.batch) =
  let n = Array.length r.Payment_ref.results in
  let cut = Array.make n false in
  Array.iter
    (Option.iter (fun (o : Payment_ref.outcome) ->
         Array.iteri
           (fun i p -> if p = infinity then cut.(o.Payment_ref.path.(i + 1)) <- true)
           o.Payment_ref.relay_pay))
    r.Payment_ref.results;
  List.filter (fun k -> cut.(k)) (List.init n Fun.id)

(* A burst that moves labels but, barring a near tie, no parent: [k]
   tree links ([`Link]: [v -> parents.(v)], which moves [v]'s label) or
   relay costs ([`Node]: [parents.(v)] for a [v] below a relay, which
   moves [v]'s) re-declared at ×(1 ± 1e-9).  [parents] is the shared
   tree's parent array, [root] its source and [cost] reads a link's
   ([`Link]) or a node's ([`Node], second argument ignored) current
   cost.  Empty when the tree has no such [v]. *)
let drift_burst r ~model ~root ~(parents : int array) ~cost k : Wnet_session.delta list =
  let below v = parents.(v) >= 0 && (model = `Link || parents.(v) <> root) in
  let vs =
    Array.of_list (List.filter below (List.init (Array.length parents) Fun.id))
  in
  if Array.length vs = 0 then []
  else
    List.init k (fun _ ->
        let v = vs.(Wnet_prng.Rng.int r (Array.length vs)) in
        let p = parents.(v) in
        let f = if Wnet_prng.Rng.bernoulli r 0.5 then 1.0 +. 1e-9 else 1.0 -. 1e-9 in
        match model with
        | `Link -> Wnet_session.Set_link_cost { u = v; v = p; w = cost v p *. f }
        | `Node -> Wnet_session.Set_node_cost { node = p; cost = cost p p *. f })
