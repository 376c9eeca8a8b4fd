(* Subtree-bounded avoidance distances.

   The payment batch needs, for every relay [k], the distances of a
   source Dijkstra with [k] forbidden.  Running that from scratch costs
   O(m log n) per relay — but silencing [k] can only change the labels
   of nodes whose shortest-path-tree route passes through [k], i.e.
   [k]'s subtree of the shared SPT.  Every node outside the subtree
   keeps a label that is {e bit-identical} to its tree distance: its
   tree path avoids [k], forbidding [k] cannot shorten anything, and
   equal IEEE-754 values have equal bit patterns.

   So the fill recomputes subtree(k) minus [k] (a contiguous pre-order
   range of the index) and nothing else, reading every other label from
   the tree: {!Dynamic_sssp.fill_link} runs it over the scratch's
   working copy of the tree's labels, which the index names, and writes
   only the region.  Work is O(|subtree(k)| log |subtree(k)|) plus the
   region's links per relay, with no n-length copy and no budget; the
   kernel's header has the exactness argument.  The repair runs the
   scoped distance repair over the same range, driven by the candidate
   changes the caller found, and keeps its budget: it discovers its
   region as it runs.  Results are immediate ints, not variants — the
   kernels sit inside the per-relay fan-out and must allocate nothing
   per call. *)

type index = {
  idx_n : int;
  pre : int array;
  size : int array;
  order : int array;
}

(* Child lists (ascending), then a threaded pre-order walk — down to the
   first child, else across to the next sibling of the nearest ancestor
   that has one — then one reverse pass folding each node's size into
   its parent's. *)
let make_index (tree : Dijkstra.tree) =
  let n = Array.length tree.Dijkstra.parent in
  let parent = tree.Dijkstra.parent in
  let first_child = Array.make (max n 1) (-1) in
  let next_sib = Array.make (max n 1) (-1) in
  for v = n - 1 downto 0 do
    let p = parent.(v) in
    if p >= 0 then begin
      next_sib.(v) <- first_child.(p);
      first_child.(p) <- v
    end
  done;
  let pre = Array.make (max n 1) (-1) in
  let size = Array.make (max n 1) 1 in
  let order = Array.make (max n 1) 0 in
  let len = ref 0 in
  let visit x =
    pre.(x) <- !len;
    order.(!len) <- x;
    incr len
  in
  if n > 0 then begin
    let src = tree.Dijkstra.source in
    visit src;
    let x = ref src in
    while !x >= 0 do
      let c = first_child.(!x) in
      if c >= 0 then begin
        visit c;
        x := c
      end
      else begin
        let y = ref !x in
        while !y <> src && next_sib.(!y) < 0 do
          y := parent.(!y)
        done;
        if !y = src then x := -1
        else begin
          visit next_sib.(!y);
          x := next_sib.(!y)
        end
      end
    done
  end;
  for i = !len - 1 downto 1 do
    let x = order.(i) in
    size.(parent.(x)) <- size.(parent.(x)) + size.(x)
  done;
  { idx_n = n; pre; size; order }

let[@inline] inside idx j x =
  let p = Array.unsafe_get idx.pre x and pj = Array.unsafe_get idx.pre j in
  p > pj && p < pj + Array.unsafe_get idx.size j

let check ~what ~n idx (tree : Dijkstra.tree) ~avoid ~dist =
  if idx.idx_n <> n || Array.length tree.Dijkstra.dist <> n then
    invalid_arg (what ^ ": index/tree do not match the graph");
  if avoid < 0 || avoid >= n then invalid_arg (what ^ ": avoid out of range");
  if avoid = tree.Dijkstra.source then
    invalid_arg (what ^ ": cannot avoid the source");
  if Array.length dist < n then invalid_arg (what ^ ": dist too short")

(* Subtree(k) minus [k] is [order.(lo + 1 .. hi)]; its size is the
   result. *)
let link_fill ds idx ~graph ~mirror ~tree ~avoid:k ~dist:d =
  check ~what:"Avoid_region.link_fill" ~n:(Digraph.n graph) idx tree ~avoid:k
    ~dist:d;
  let lo = idx.pre.(k) in
  let hi = lo + idx.size.(k) - 1 in
  Dynamic_sssp.fill_link ds ~forbidden:k ~graph ~mirror ~pre:idx.pre
    ~order:idx.order ~lo ~hi ~tree:tree.Dijkstra.dist ~dist:d;
  hi - lo

(* The full-array contract: the tree's labels everywhere, [k] silenced,
   then the fill over the region. *)
let blit (tree : Dijkstra.tree) k d =
  Array.blit tree.Dijkstra.dist 0 d 0 (Array.length tree.Dijkstra.dist);
  d.(k) <- infinity

let link_avoid ds idx ~graph ~mirror ~tree ~avoid ~dist =
  check ~what:"Avoid_region.link_avoid" ~n:(Digraph.n graph) idx tree ~avoid
    ~dist;
  blit tree avoid dist;
  link_fill ds idx ~graph ~mirror ~tree ~avoid ~dist

(* The node model through its link view, built for this one call. *)
let node_avoid ds idx ~graph ~tree ~avoid ~dist =
  check ~what:"Avoid_region.node_avoid" ~n:(Graph.n graph) idx tree ~avoid
    ~dist;
  let fwd, rev = Digraph.node_view graph ~root:tree.Dijkstra.source in
  link_avoid ds idx ~graph:rev ~mirror:fwd ~tree ~avoid ~dist

let link_repair ds idx ~graph ~mirror ~tree ~avoid:k ~dist ch ~first ~last =
  let lo = idx.pre.(k) in
  Dynamic_sssp.repair_scoped ds
    ~budget:(Dynamic_sssp.default_budget (Digraph.n graph))
    ~forbidden:k ~graph ~mirror ~source:tree.Dijkstra.source ~scope:idx.pre ~lo
    ~hi:(lo + idx.size.(k) - 1) ~ext:tree.Dijkstra.dist ~dist ch ~first ~last
