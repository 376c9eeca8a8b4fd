open Wnet_graph

type outcome = {
  src : int;
  path : Path.t;
  lcp_cost : float;
  relay_cost : float;
  relay_pay : float array;
  charge : float;
}

type batch = {
  root : int;
  to_root_dist : float array;
  results : outcome option array;
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
  model : [ `Link | `Node ];
      (* what a relay declares: its tree link's weight, or (over a node
         model's link view) the weight of each of its reversed links *)
  g : Digraph.t;  (* forward topology, mutated in place *)
  rev : Digraph.t;  (* reversed mirror, kept in lockstep *)
  mutable dyn : Dynamic_sssp.t option;
      (* the shared SPT over [rev] as a patched structure; exact for the
         current graph whenever the pending burst is empty *)
  mutable tree_version : int;
  cache : Avoid_cache.t;
  mutable unbounded : int list;
  mutable settled : (int * Dijkstra.tree * float array) option;
      (* the tree and the payment pass's charges, keyed by version *)
  mutable own : float array;
      (* each node's declared cost, filled with [settled] *)
  mutable slot : int array;
      (* each reached node's tree-link slot in [g]'s CSR, -1 at the root
         and off the tree *)
  mutable slot_key : (Avoid_region.index * Digraph.csr) option;
      (* the cache's index and the CSR record [slot] was built for *)
  mutable edited : Bytes.t;
      (* per [rev] CSR slot: set on a net edit of the flush while its
         scan runs, clear otherwise *)
  mutable marked : int array;  (* the scan's net edits' slots, -1 if none *)
  mutable last : (int * batch) option;  (* memoized batch, keyed by version *)
  pending : (int * int, float) Hashtbl.t;
      (* links cost-edited since the last flush, mapped to their weight
         *before* the burst; the graph itself is mutated eagerly, only
         the cache maintenance is deferred and coalesced *)
  mutable pending_order : (int * int) list;  (* insertion order, reversed *)
  mutable pending_edits : int;  (* set_cost calls buffered in this burst *)
  mutable edits : int;
  mutable coalesced_edits : int;
  mutable inval_passes : int;
  mutable spt_runs : int;
}

let make ~model ~pool ~root g rev =
  {
    root;
    model;
    g;
    rev;
    dyn = None;
    tree_version = -1;
    cache = Avoid_cache.create pool (Digraph.n g);
    unbounded = [];
    settled = None;
    own = [||];
    slot = [||];
    slot_key = None;
    edited = Bytes.empty;
    marked = [||];
    last = None;
    pending = Hashtbl.create 16;
    pending_order = [];
    pending_edits = 0;
    edits = 0;
    coalesced_edits = 0;
    inval_passes = 0;
    spt_runs = 0;
  }

let create ?(pool = Wnet_par.sequential) g ~root =
  if root < 0 || root >= Digraph.n g then
    invalid_arg "Link_session.create: root out of range";
  let g = Digraph.copy g in
  make ~model:`Link ~pool ~root g (Digraph.reverse g)

let of_node_model ?(pool = Wnet_par.sequential) g ~root =
  if root < 0 || root >= Graph.n g then
    invalid_arg "Link_session.of_node_model: root out of range";
  let g, rev = Digraph.node_view g ~root in
  make ~model:`Node ~pool ~root g rev

let n t = Digraph.n t.g
let root t = t.root

(* [Digraph.weight] indexes the row of [u] unchecked. *)
let check_link ~what t u v =
  let nn = n t in
  if u < 0 || u >= nn || v < 0 || v >= nn then
    invalid_arg
      (Printf.sprintf "%s: link %d -> %d: node out of range 0..%d" what u v (nn - 1))

let cost t u v =
  check_link ~what:"Link_session.cost" t u v;
  Digraph.weight t.g u v

let version t = Digraph.version t.g
let snapshot t = Digraph.copy t.g
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

(* ------------------------------------------------------------------ *)
(* Cache maintenance.

   The entry for relay [j] holds the labels of a Dijkstra over [rev]
   with [j] forbidden, on [j]'s subtree of the shared SPT.  After each
   burst the shared SPT is repaired in place ({!Dynamic_sssp.apply},
   which falls back to a from-scratch run on an oversized region or a
   parent tie), then {!Avoid_cache.maintain} applies the flush policy to
   the burst's candidate changes: every net rev-link edit, and every
   other rev-link out of a node whose tree label moved. *)

let mark_edit t =
  t.edits <- t.edits + 1;
  t.last <- None

(* The burst's candidate changes, appended to the cache's buffer [c]
   after [room k] (see {!Avoid_cache.maintain}): every net edit, then
   every other link out of a node whose tree label moved.  The edits are
   marked on their slots as they go, so the scan skips an edited link in
   O(1), and logged in [marked] from [i] on, so the marks are cleared
   when it ends. *)
let rec push_edits t room (c : Dynamic_sssp.changes) i = function
  | [] -> ()
  | (e : Dynamic_sssp.edit) :: rest ->
    room 1;
    let j = c.len in
    c.tail.(j) <- e.u;
    c.head.(j) <- e.v;
    c.before.(j) <- e.w0;
    c.after.(j) <- e.w1;
    c.len <- j + 1;
    let sl = Digraph.slot t.rev e.u e.v in
    t.marked.(i) <- sl;
    if sl >= 0 then Bytes.set t.edited sl '\001';
    push_edits t room c (i + 1) rest

let scan t tree redits room (c : Dynamic_sssp.changes) =
  let m = Digraph.m t.rev and k = List.length redits in
  if Bytes.length t.edited < m then
    t.edited <- Bytes.make (max m (2 * Bytes.length t.edited)) '\000';
  if Array.length t.marked < k then t.marked <- Array.make (max k (2 * Array.length t.marked)) 0;
  push_edits t room c 0 redits;
  let { Digraph.row_off; col; wgt } = Digraph.csr t.rev in
  Avoid_cache.relabelled t.cache tree (fun p ->
      room (row_off.(p + 1) - row_off.(p));
      for sl = row_off.(p) to row_off.(p + 1) - 1 do
        if Bytes.get t.edited sl = '\000' then begin
          let i = c.len in
          let w = wgt.(sl) in
          c.tail.(i) <- p;
          c.head.(i) <- col.(sl);
          c.before.(i) <- w;
          c.after.(i) <- w;
          c.len <- i + 1
        end
      done);
  for i = 0 to k - 1 do
    if t.marked.(i) >= 0 then Bytes.set t.edited t.marked.(i) '\000'
  done

(* One invalidation pass over net rev-graph edits already applied to
   both orientations.  Before the first payments there is no tree and no
   cache, and nothing to maintain. *)
let maintain t redits =
  t.inval_passes <- t.inval_passes + 1;
  match t.dyn with
  | None -> ()
  | Some dy ->
    let c = t.cache in
    (match Dynamic_sssp.apply dy redits with
    | Dynamic_sssp.Patched { region } ->
      c.repaired <- c.repaired + 1;
      Avoid_cache.record_region c region
    | Dynamic_sssp.Rebuilt _ ->
      t.spt_runs <- t.spt_runs + 1;
      c.fallbacks <- c.fallbacks + 1);
    t.tree_version <- version t;
    let tree = Dynamic_sssp.tree dy in
    Avoid_cache.maintain c ~tree ~stamp:t.tree_version ~scan:(scan t tree redits)
      ~repair:(fun ds idx k dist ch ~first ~last ->
        Avoid_region.link_repair ds idx ~graph:t.rev ~mirror:t.g ~tree ~avoid:k
          ~dist ch ~first ~last)

(* Cost edits mutate the graph eagerly but defer the cache maintenance:
   the burst accumulated since the last flush is folded into ONE pass,
   against every *net* link change (first-recorded old weight vs.
   current weight).  An edit reverted within the burst vanishes. *)
let flush t =
  if t.pending_edits > 0 then begin
    let redits =
      List.filter_map
        (fun (u, v) ->
          let w0 = Hashtbl.find t.pending (u, v) and w1 = Digraph.weight t.g u v in
          (* the forward link u -> v is the rev-link v -> u *)
          if Float.equal w0 w1 then None else Some { Dynamic_sssp.u = v; v = u; w0; w1 })
        t.pending_order
    in
    t.coalesced_edits <- t.coalesced_edits + t.pending_edits;
    Hashtbl.reset t.pending;
    t.pending_order <- [];
    t.pending_edits <- 0;
    if redits <> [] then maintain t redits
  end

(* A node model's view pays relay [k] the weight of its reversed links,
   which is [k]'s cost only while every link into [k] weighs the same:
   such a session takes whole declarations ({!set_node_cost}) and
   leaves, never a single link. *)
let check_model ~what t model =
  if t.model <> model then invalid_arg (what ^ ": not this session's cost model")

let set_link t u v w =
  let i = Digraph.slot t.g u v in
  let w0 = if i >= 0 then (Digraph.csr t.g).Digraph.wgt.(i) else infinity in
  if not (Float.equal w0 w) then begin
    Digraph.set_weight t.g u v w;
    Digraph.set_weight t.rev v u w;
    mark_edit t;
    t.pending_edits <- t.pending_edits + 1;
    if not (Hashtbl.mem t.pending (u, v)) then begin
      Hashtbl.add t.pending (u, v) w0;
      t.pending_order <- (u, v) :: t.pending_order
    end
  end

let set_cost t u v w =
  check_model ~what:"Link_session.set_cost" t `Link;
  check_link ~what:"Link_session.set_cost" t u v;
  set_link t u v w

(* Every link [y -> x] of the view, one per reversed link out of [x];
   the links into the root weigh 0 whatever it declares. *)
let set_node_cost t x c =
  check_model ~what:"Link_session.set_node_cost" t `Node;
  if x < 0 || x >= n t then invalid_arg "Link_session.set_node_cost: out of range";
  if not (c >= 0.0 && c < infinity) then
    invalid_arg "Link_session.set_node_cost: cost must be finite and non-negative";
  if x <> t.root then begin
    let { Digraph.row_off; col; _ } = Digraph.csr t.rev in
    for i = row_off.(x) to row_off.(x + 1) - 1 do
      set_link t col.(i) x c
    done
  end

(* Fold [f] over row [u] of [g] in ascending target order. *)
let fold_row g u f acc =
  let { Digraph.row_off; col; wgt } = Digraph.csr g in
  let acc = ref acc in
  for i = row_off.(u) to row_off.(u + 1) - 1 do
    acc := f !acc col.(i) wgt.(i)
  done;
  !acc

let remove_node t k =
  if k < 0 || k >= n t then invalid_arg "Link_session.remove_node: out of range";
  if k = t.root then invalid_arg "Link_session.remove_node: cannot remove the root";
  flush t;
  (* every incident link deleted, expressed as rev-graph edits.
     Detaching k moves or strands its descendants, a membership change
     {!Avoid_cache.maintain} finds in the tree diff; an unreached node
     is in no subtree, so no entry holds a label for k afterwards. *)
  let redits =
    fold_row t.rev k
      (fun acc u w -> { Dynamic_sssp.u = k; v = u; w0 = w; w1 = infinity } :: acc)
      []
  in
  let redits =
    fold_row t.g k
      (fun acc y w -> { Dynamic_sssp.u = y; v = k; w0 = w; w1 = infinity } :: acc)
      redits
  in
  Digraph.detach_node t.g k;
  Digraph.detach_node t.rev k;
  mark_edit t;
  maintain t redits

(* A node's finite links, attached to each orientation in one merge. *)
let apply_links t id ~out ~inn =
  let out = List.filter (fun (_, w) -> w < infinity) out
  and inn = List.filter (fun (_, w) -> w < infinity) inn in
  Digraph.set_weights t.g
    (List.map (fun (v, w) -> (id, v, w)) out @ List.map (fun (u, w) -> (u, id, w)) inn);
  Digraph.set_weights t.rev
    (List.map (fun (v, w) -> (v, id, w)) out @ List.map (fun (u, w) -> (id, u, w)) inn)

(* A freshly attached node's links, as rev-graph insertions, read off
   the graph itself (so duplicates in the caller's link lists fold
   away).  The node was in no subtree and no entry holds a label for
   it; entering the tree is a membership change that
   {!Avoid_cache.maintain} finds in the tree diff. *)
let attach t id =
  let redits =
    fold_row t.g id
      (fun acc v w -> { Dynamic_sssp.u = v; v = id; w0 = infinity; w1 = w } :: acc)
      []
  in
  maintain t
    (fold_row t.rev id
       (fun acc u w -> { Dynamic_sssp.u = id; v = u; w0 = infinity; w1 = w } :: acc)
       redits)

let check_attach_link ~what ~n ~self (x, w) =
  if x < 0 || x >= n || x = self then
    invalid_arg (what ^ ": link endpoint out of range");
  if Float.is_nan w || w < 0.0 then
    invalid_arg (what ^ ": weight must be non-negative")

let add_node t ~out ~inn =
  check_model ~what:"Link_session.add_node" t `Link;
  let old_n = n t in
  List.iter (check_attach_link ~what:"Link_session.add_node" ~n:old_n ~self:(-1)) out;
  List.iter (check_attach_link ~what:"Link_session.add_node" ~n:old_n ~self:(-1)) inn;
  flush t;
  let id = Digraph.add_node t.g in
  let id' = Digraph.add_node t.rev in
  assert (id = id');
  Avoid_cache.grow t.cache (id + 1);
  apply_links t id ~out ~inn;
  mark_edit t;
  attach t id;
  id

let rejoin_node t k ~out ~inn =
  check_model ~what:"Link_session.rejoin_node" t `Link;
  let nn = n t in
  if k < 0 || k >= nn then invalid_arg "Link_session.rejoin_node: out of range";
  if k = t.root then invalid_arg "Link_session.rejoin_node: cannot rejoin the root";
  if Digraph.out_degree t.g k > 0 || Digraph.out_degree t.rev k > 0 then
    invalid_arg "Link_session.rejoin_node: node is not isolated";
  List.iter (check_attach_link ~what:"Link_session.rejoin_node" ~n:nn ~self:k) out;
  List.iter (check_attach_link ~what:"Link_session.rejoin_node" ~n:nn ~self:k) inn;
  flush t;
  apply_links t k ~out ~inn;
  mark_edit t;
  (* the add_node situation, minus the array extension: an isolated k
     is in no subtree, and k itself has no descendants *)
  attach t k

(* ------------------------------------------------------------------ *)
(* The batch, assembled from caches.                                    *)

let shared_tree t =
  match t.dyn with
  | Some dy ->
    (* flush and the structural deltas keep the patched tree exact;
       anything else would be a bookkeeping bug — recover by a rebuild *)
    if t.tree_version <> version t then begin
      Dynamic_sssp.rebuild dy;
      t.spt_runs <- t.spt_runs + 1;
      t.tree_version <- version t
    end;
    Dynamic_sssp.tree dy
  | None ->
    let dy = Dynamic_sssp.create ~graph:t.rev ~mirror:t.g ~source:t.root in
    t.dyn <- Some dy;
    t.tree_version <- version t;
    t.spt_runs <- t.spt_runs + 1;
    Dynamic_sssp.tree dy

(* Each node's own cost: what relay [k] declares for forwarding every
   source of its subtree.  In the link model it is the weight of [k]'s
   tree link, and what a source's [relay_cost] leaves out; it is read
   through each node's tree-link slot, which depends only on the
   parents and the CSR's layout: the slots are looked up again when the
   cache's index (kept while no parent moves) or the CSR record (a
   splice installs a new one) changes.  Over a node model's view, [k]'s
   tree link weighs its parent's cost, and every reversed link out of
   [k] weighs [k]'s own: the first one is read. *)
let node_costs t =
  let n = n t in
  if Array.length t.own <> n then t.own <- Array.create_float n;
  let { Digraph.row_off; wgt; _ } = Digraph.csr t.rev in
  for k = 0 to n - 1 do
    t.own.(k) <- (if row_off.(k) < row_off.(k + 1) then wgt.(row_off.(k)) else 0.0)
  done;
  t.own

let link_costs t (tree : Dijkstra.tree) =
  let n = n t in
  let idx = Avoid_cache.index t.cache ~stamp:t.tree_version tree in
  let c = Digraph.csr t.g in
  (match t.slot_key with
  | Some (i, c') when i == idx && c' == c -> ()
  | _ ->
    if Array.length t.slot <> n then t.slot <- Array.make n (-1);
    let parent = tree.Dijkstra.parent in
    for k = 0 to n - 1 do
      t.slot.(k) <-
        (if k <> t.root && Dijkstra.reachable tree k then Digraph.slot t.g k parent.(k)
         else -1)
    done;
    t.slot_key <- Some (idx, c));
  if Array.length t.own <> n then t.own <- Array.create_float n;
  let wgt = c.Digraph.wgt and slot = t.slot in
  for k = 0 to n - 1 do
    let i = slot.(k) in
    t.own.(k) <- (if i >= 0 then wgt.(i) else 0.0)
  done;
  t.own

let charges t =
  match t.settled with
  | Some (v, tree, charge) when v = version t -> (tree, charge)
  | _ ->
    flush t;
    let tree = shared_tree t in
    (* Per-relay fills of the relay's SPT subtree only: exterior labels
       are read off the shared tree, only the region is recomputed. *)
    let fill ds idx k d =
      Avoid_region.link_fill ds idx ~graph:t.rev ~mirror:t.g ~tree ~avoid:k ~dist:d
    in
    Avoid_cache.refill t.cache ~tree ~stamp:t.tree_version ~fill;
    let charge, cut =
      Avoid_cache.charges t.cache ~tree ~stamp:t.tree_version ~model:t.model
        ~own:(match t.model with `Link -> link_costs t tree | `Node -> node_costs t)
    in
    t.unbounded <- cut;
    t.settled <- Some (version t, tree, charge);
    (tree, charge)

let tree_index t =
  let tree, _ = charges t in
  Avoid_cache.index t.cache ~stamp:t.tree_version tree

let payments t =
  match t.last with
  | Some (v, batch) when v = version t -> batch
  | _ ->
    let tree, charge = charges t in
    let own = t.own in
    let results =
      Avoid_cache.table t.cache ~tree ~stamp:t.tree_version ~model:t.model ~own
        (fun src path relay_pay ->
          let lcp_cost = tree.Dijkstra.dist.(src) in
          {
            src;
            path;
            lcp_cost;
            relay_cost = lcp_cost -. own.(src);
            relay_pay;
            charge = charge.(src);
          })
    in
    let batch =
      { root = t.root; to_root_dist = Array.copy tree.Dijkstra.dist; results }
    in
    t.last <- Some (version t, batch);
    batch
