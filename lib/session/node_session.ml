open Wnet_graph

type outcome = {
  src : int;
  path : Path.t;
  lcp_cost : float;
  relay_pay : float array;
  charge : float;
}

type stats = Link_session.stats = {
  edits : int;
  coalesced_edits : int;
  inval_passes : int;
  spt_runs : int;
  avoid_runs : int;
  avoid_reused : int;
  repaired_entries : int;
  fallback_recomputes : int;
  tasks_executed : int;
  tasks_stolen : int;
  avoid_bounded : int;
  avoid_fallback : int;
}

(* A link session over the node model's link view, in which the link
   [y -> x] weighs [x]'s relay cost (0 into the root): a declaration on
   [x] is one link edit per neighbour, and the link engine coalesces,
   flushes and repairs them.  The adapter keeps the graph for {!graph}
   and {!cost}, its own version, the node declarations' counts and its
   node outcomes. *)
type t = {
  s : Link_session.t;
  mutable g : Graph.t;
  mutable version : int;
  mutable edits : int;
  mutable coalesced_edits : int;
  mutable pending : int;  (* non-root declarations since the last flush *)
  mutable last : (Link_session.outcome option array * outcome option array) option;
      (* the link engine's memoized batch and its node outcomes *)
}

let create ?pool g ~root =
  if root < 0 || root >= Graph.n g then
    invalid_arg "Node_session.create: root out of range";
  {
    s = Link_session.of_node_model ?pool g ~root;
    g;
    version = 0;
    edits = 0;
    coalesced_edits = 0;
    pending = 0;
    last = None;
  }

let n t = Graph.n t.g
let root t = Link_session.root t.s
let cost t v = Graph.cost t.g v
let graph t = t.g
let version t = t.version
let stats t =
  { (Link_session.stats t.s) with edits = t.edits; coalesced_edits = t.coalesced_edits }
let unbounded_relays t = Link_session.unbounded_relays t.s
let region_histogram t = Link_session.region_histogram t.s
let entries t = Link_session.entries t.s

(* The link session, for a call that may flush it: the burst's node
   declarations count as coalesced, as the flush folds them. *)
let flushing t =
  t.coalesced_edits <- t.coalesced_edits + t.pending;
  t.pending <- 0;
  t.s

let flush t = Link_session.flush (flushing t)
let charges t = Link_session.charges (flushing t)
let tree_index t = Link_session.tree_index (flushing t)

let set_cost t x c =
  if x < 0 || x >= n t then invalid_arg "Node_session.set_cost: out of range";
  if not (Float.equal (Graph.cost t.g x) c) then begin
    (* [with_cost] checks [c] before any link moves: a link set to
       [infinity] would be deleted *)
    t.g <- Graph.with_cost t.g x c;
    t.version <- t.version + 1;
    t.edits <- t.edits + 1;
    (* a declaration on the root moves no link *)
    if x <> root t then t.pending <- t.pending + 1;
    Link_session.set_node_cost t.s x c
  end

let remove_node t x =
  if x < 0 || x >= n t then invalid_arg "Node_session.remove_node: out of range";
  if x = root t then invalid_arg "Node_session.remove_node: cannot remove the root";
  Link_session.remove_node (flushing t) x;
  t.g <- Graph.remove_node t.g x;
  t.version <- t.version + 1;
  t.edits <- t.edits + 1

let payments t =
  let results = (Link_session.payments (flushing t)).results in
  match t.last with
  | Some (r, outcomes) when r == results -> outcomes
  | _ ->
    let outcomes =
      Array.map
        (Option.map (fun (o : Link_session.outcome) ->
             {
               src = o.src;
               path = o.path;
               lcp_cost = o.lcp_cost;
               relay_pay = o.relay_pay;
               charge = o.charge;
             }))
        results
    in
    t.last <- Some (results, outcomes);
    outcomes

(* The payments table reshaped the way the distributed protocols report
   it: per source, a (relay, payment) assoc sorted by relay id.  Used as
   the oracle side of the dsim cross-check. *)
let relay_tables t =
  Array.map
    (function
      | None -> []
      | Some o ->
        List.sort compare
          (List.init (Array.length o.relay_pay) (fun i ->
               (o.path.(i + 1), o.relay_pay.(i)))))
    (payments t)
