open Wnet_graph

type outcome = {
  src : int;
  path : Path.t;
  lcp_cost : float;
  relay_pay : float array;
  charge : float;
}

type stats = {
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

type t = {
  root : int;
  mutable g : Graph.t;  (* adjacency shared; cost vector swapped per edit *)
  mutable gver : int;  (* session-managed version stamp *)
  mutable tree : Dijkstra.tree option;
      (* the node-weighted shared tree is rebuilt, not repaired:
         Dynamic_sssp repairs link-weighted trees, and it is one
         Dijkstra per burst *)
  mutable tree_version : int;
  cache : Avoid_cache.t;
  mutable unbounded : int list;
  mutable settled : (int * Dijkstra.tree * float array) option;
      (* the tree and the payment pass's charges, keyed by version *)
  mutable last : (int * outcome option array) option;
  mutable edited : int array;  (* per node: [epoch] marks a net edit of the flush *)
  mutable epoch : int;
  pending : (int, float) Hashtbl.t;
      (* nodes cost-edited since the last flush, mapped to their cost
         *before* the burst; invalidation is deferred and coalesced *)
  mutable pending_order : int list;  (* insertion order, reversed *)
  mutable pending_edits : int;
  mutable edits : int;
  mutable coalesced_edits : int;
  mutable inval_passes : int;
  mutable spt_runs : int;
}

let create ?(pool = Wnet_par.sequential) g ~root =
  let n = Graph.n g in
  if root < 0 || root >= n then invalid_arg "Node_session.create: root out of range";
  {
    root;
    g;
    gver = 0;
    tree = None;
    tree_version = -1;
    cache = Avoid_cache.create pool n;
    unbounded = [];
    settled = None;
    last = None;
    edited = [||];
    epoch = 0;
    pending = Hashtbl.create 16;
    pending_order = [];
    pending_edits = 0;
    edits = 0;
    coalesced_edits = 0;
    inval_passes = 0;
    spt_runs = 0;
  }

let n t = Graph.n t.g
let root t = t.root
let cost t v = Graph.cost t.g v
let graph t = t.g
let version t = t.gver
let stats t =
  let c = t.cache in
  { edits = t.edits; coalesced_edits = t.coalesced_edits;
    inval_passes = t.inval_passes; spt_runs = t.spt_runs;
    avoid_runs = c.avoid_runs; avoid_reused = c.avoid_reused;
    repaired_entries = c.repaired; fallback_recomputes = c.fallbacks;
    tasks_executed = c.tasks_executed; tasks_stolen = c.tasks_stolen;
    avoid_bounded = c.avoid_runs; avoid_fallback = 0 }
let unbounded_relays t = t.unbounded
let region_histogram t = Avoid_cache.region_histogram t.cache
let entries t = Avoid_cache.entries t.cache

let mark_edit t =
  t.gver <- t.gver + 1;
  t.edits <- t.edits + 1;
  t.last <- None

let shared_tree t =
  match t.tree with
  | Some tree when t.tree_version = t.gver -> tree
  | _ ->
    let tree = Dijkstra.node_weighted t.g ~source:t.root in
    t.tree <- Some tree;
    t.tree_version <- t.gver;
    t.spt_runs <- t.spt_runs + 1;
    tree

(* The burst's candidate changes, appended to the cache's buffer [c]
   after [room k] (see {!Avoid_cache.maintain}): in the node model a
   link [p -> y] weighs [p]'s relay cost (0 from the root), so a cost
   edit on [x] changes every link out of [x] (a removal, to [infinity],
   the links of its old adjacency), and a node whose tree label moved
   changes every link out of it.  Edited nodes are stamped as they go,
   so the scan skips one in O(1). *)
let[@inline] push room (c : Dynamic_sssp.changes) p (ys : int array) w0 w1 =
  room (Array.length ys);
  for k = 0 to Array.length ys - 1 do
    let i = c.len in
    c.tail.(i) <- p;
    c.head.(i) <- ys.(k);
    c.before.(i) <- w0;
    c.after.(i) <- w1;
    c.len <- i + 1
  done

let scan t tree nedits room (c : Dynamic_sssp.changes) =
  let n = n t in
  if Array.length t.edited < n then t.edited <- Array.make n 0;
  t.epoch <- t.epoch + 1;
  let epoch = t.epoch in
  List.iter
    (fun (e : Dynamic_sssp.node_edit) ->
      t.edited.(e.x) <- epoch;
      push room c e.x e.nbrs e.c0 e.c1)
    nedits;
  let cost = Graph.costs_view t.g in
  Avoid_cache.relabelled t.cache tree (fun p ->
      if t.edited.(p) <> epoch then begin
        let w = if p = t.root then 0.0 else cost.(p) in
        push room c p (Graph.neighbors t.g p) w w
      end)

(* One invalidation pass of the flush policy (see {!Avoid_cache}) over
   net node-cost edits.  The tree is rebuilt here rather than at the
   next payments, which needs it anyway: the policy works from what the
   rebuild moved. *)
let maintain t nedits =
  t.inval_passes <- t.inval_passes + 1;
  let graph = t.g in
  let tree = shared_tree t in
  Avoid_cache.maintain t.cache ~tree ~stamp:t.tree_version ~scan:(scan t tree nedits)
    ~repair:(fun ds idx k dist ch ~first ~last ->
      Avoid_region.node_repair ds idx ~graph ~tree ~avoid:k ~dist ch ~first
        ~last)

(* Deferred, coalesced maintenance: cost edits swap the cost vector
   eagerly, the cache pass waits for the next flush and handles each
   surviving cache against every *net* node-cost change in one go.
   Adjacency never changes between flushes — the structural delta
   ({!remove_node}) flushes first — so neighbour sets read at flush
   time are the ones every buffered edit saw. *)
let flush t =
  if t.pending_edits > 0 then begin
    let nedits =
      List.filter_map
        (fun x ->
          let c0 = Hashtbl.find t.pending x and c1 = Graph.cost t.g x in
          if Float.equal c0 c1 then None
          else Some { Dynamic_sssp.x; nbrs = Graph.neighbors t.g x; c0; c1 })
        t.pending_order
    in
    t.coalesced_edits <- t.coalesced_edits + t.pending_edits;
    Hashtbl.reset t.pending;
    t.pending_order <- [];
    t.pending_edits <- 0;
    if nedits <> [] then maintain t nedits
  end

let set_cost t x c =
  if x < 0 || x >= n t then invalid_arg "Node_session.set_cost: out of range";
  let c0 = Graph.cost t.g x in
  if not (Float.equal c0 c) then begin
    t.g <- Graph.with_cost t.g x c;
    mark_edit t;
    (* The root's relay cost never enters a from-root search (leaving
       the source is free) nor any payment, so every cache survives and
       there is nothing to buffer. *)
    if x <> t.root then begin
      t.pending_edits <- t.pending_edits + 1;
      if not (Hashtbl.mem t.pending x) then begin
        Hashtbl.add t.pending x c0;
        t.pending_order <- x :: t.pending_order
      end
    end
  end

let remove_node t x =
  if x < 0 || x >= n t then invalid_arg "Node_session.remove_node: out of range";
  if x = t.root then invalid_arg "Node_session.remove_node: cannot remove the root";
  flush t;
  let nbrs = Graph.neighbors t.g x in
  let c0 = Graph.cost t.g x in
  t.g <- Graph.remove_node t.g x;
  mark_edit t;
  (* as a cost edit to infinity on x's old links: no search relays x any
     more.  x leaves every subtree it was in, a membership change. *)
  maintain t [ { Dynamic_sssp.x; nbrs; c0; c1 = infinity } ]

let charges t =
  match t.settled with
  | Some (v, tree, charge) when v = t.gver -> (tree, charge)
  | _ ->
    flush t;
    let tree = shared_tree t in
    (* Region-only fills; see {!Link_session.charges}. *)
    let fill ds idx k d =
      Avoid_region.node_fill ds idx ~graph:t.g ~tree ~avoid:k ~dist:d
    in
    Avoid_cache.refill t.cache ~tree ~stamp:t.tree_version ~fill;
    let charge, cut =
      Avoid_cache.charges t.cache ~tree ~stamp:t.tree_version ~model:`Node
        ~own:(Graph.costs_view t.g)
    in
    t.unbounded <- cut;
    t.settled <- Some (t.gver, tree, charge);
    (tree, charge)

let tree_index t =
  let tree, _ = charges t in
  Avoid_cache.index t.cache ~stamp:t.tree_version tree

let payments t =
  match t.last with
  | Some (v, results) when v = t.gver -> results
  | _ ->
    let tree, charge = charges t in
    let results =
      Avoid_cache.table t.cache ~tree ~stamp:t.tree_version ~model:`Node
        ~own:(Graph.costs_view t.g) (fun src path relay_pay ->
          {
            src;
            path;
            lcp_cost = tree.Dijkstra.dist.(src);
            relay_pay;
            charge = charge.(src);
          })
    in
    t.last <- Some (t.gver, results);
    results

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
