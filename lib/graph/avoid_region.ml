(* Subtree-bounded avoidance distances.

   The batch payment engine needs, for every relay [k], the full
   distance array of a source Dijkstra with [k] forbidden.  Running that
   from scratch costs O(m log n) per relay — but silencing [k] can only
   change the labels of nodes whose shortest-path-tree route passes
   through [k], i.e. [k]'s subtree of the shared SPT.  Every node
   outside the subtree keeps a label that is {e bit-identical} to its
   tree distance: its tree path avoids [k], forbidding [k] cannot
   shorten anything, and equal IEEE-754 values have equal bit patterns.

   So the kernel copies the tree distances wholesale, marks subtree(k)
   minus [k] as the affected region (breadth-first over the index's
   child lists, using the region log itself as the queue — no
   allocation), and runs the Dynamic_sssp wipe / boundary-reseed /
   bounded-settle discipline over just that region, with "silence k" as
   the virtual edit.  Work drops to O(|subtree(k)| log |subtree(k)|)
   per relay; on sparse instances most subtrees are tiny.

   Exactness needs no tie detection: each region label is a minimum
   over candidates [d(p) +. w] whose prefixes [d(p)] are bit-identical
   to the from-scratch forbidden run's final labels (boundary by the
   subtree argument, region members inductively), and a minimum of
   identical float sums is the same float whatever order the frontier
   settles in.  The only failure mode is the region-size budget: an
   oversized subtree returns [-1] and the caller falls back to the
   full-graph kernel.  Results are immediate ints, not variants — the
   kernels sit inside the per-relay fan-out and must allocate nothing
   per call. *)

type index = {
  idx_n : int;
  first_child : int array;
  next_sib : int array;
}

let make_index (tree : Dijkstra.tree) =
  let n = Array.length tree.Dijkstra.parent in
  let first_child = Array.make (max n 1) (-1) in
  let next_sib = Array.make (max n 1) (-1) in
  (* downward loop: child lists come out in ascending node order *)
  for v = n - 1 downto 0 do
    let p = tree.Dijkstra.parent.(v) in
    if p >= 0 then begin
      next_sib.(v) <- first_child.(p);
      first_child.(p) <- v
    end
  done;
  { idx_n = n; first_child; next_sib }

let index_size idx = idx.idx_n

(* [buf] is the queue: children are appended behind the node whose
   children are being listed. *)
let descendants idx k buf =
  let len = ref 0 and i = ref (-1) and x = ref k in
  while !i < !len do
    let c = ref idx.first_child.(!x) in
    while !c >= 0 do
      buf.(!len) <- !c;
      incr len;
      c := idx.next_sib.(!c)
    done;
    incr i;
    if !i < !len then x := buf.(!i)
  done;
  !len

(* Breadth-first from the source over the child lists, then one reverse
   pass folding each node's count into its parent. *)
let subtree_sizes idx (tree : Dijkstra.tree) =
  let n = idx.idx_n in
  let size = Array.make n 1 and order = Array.make n 0 in
  let len = ref 0 in
  if n > 0 then begin
    order.(0) <- tree.Dijkstra.source;
    len := 1
  end;
  let i = ref 0 in
  while !i < !len do
    let c = ref idx.first_child.(order.(!i)) in
    incr i;
    while !c >= 0 do
      order.(!len) <- !c;
      incr len;
      c := idx.next_sib.(!c)
    done
  done;
  for i = !len - 1 downto 1 do
    let x = order.(i) in
    let p = tree.Dijkstra.parent.(x) in
    size.(p) <- size.(p) + size.(x)
  done;
  size

(* Mark the strict descendants of [k], breadth-first: the region log is
   append-only, so walking it by position while appending children IS
   the queue.  Returns [false] on budget overflow. *)
let mark_subtree ds ~budget idx k =
  let ok = ref true in
  let c = ref idx.first_child.(k) in
  while !ok && !c >= 0 do
    ok := Dynamic_sssp.region_mark ds ~budget !c;
    c := idx.next_sib.(!c)
  done;
  let i = ref 0 in
  while !ok && !i < Dynamic_sssp.region_size ds do
    let x = Dynamic_sssp.region_nth ds !i in
    incr i;
    let c = ref idx.first_child.(x) in
    while !ok && !c >= 0 do
      ok := Dynamic_sssp.region_mark ds ~budget !c;
      c := idx.next_sib.(!c)
    done
  done;
  !ok

let check ~what ~n idx (tree : Dijkstra.tree) ~avoid ~dist =
  if idx.idx_n <> n || Array.length tree.Dijkstra.dist <> n then
    invalid_arg (what ^ ": index/tree do not match the graph");
  if avoid < 0 || avoid >= n then invalid_arg (what ^ ": avoid out of range");
  if avoid = tree.Dijkstra.source then
    invalid_arg (what ^ ": cannot avoid the source");
  if Array.length dist < n then invalid_arg (what ^ ": dist too short")

let link_avoid ds ?budget idx ~graph ~mirror ~tree ~avoid:k ~dist:d =
  let n = Digraph.n graph in
  let budget =
    match budget with Some b -> b | None -> Dynamic_sssp.default_budget n
  in
  check ~what:"Avoid_region.link_avoid" ~n idx tree ~avoid:k ~dist:d;
  Dynamic_sssp.region_begin ds n;
  Array.blit tree.Dijkstra.dist 0 d 0 n;
  d.(k) <- infinity;
  if not (mark_subtree ds ~budget idx k) then -1
  else begin
    Dynamic_sssp.region_wipe ds ~dist:d;
    Dynamic_sssp.region_reseed_link ds ~forbidden:k ~mirror ~dist:d;
    if Dynamic_sssp.region_settle_link ds ~budget ~forbidden:k ~graph ~dist:d
    then Dynamic_sssp.region_size ds
    else -1
  end

let node_avoid ds ?budget idx ~graph ~tree ~avoid:k ~dist:d =
  let n = Graph.n graph in
  let budget =
    match budget with Some b -> b | None -> Dynamic_sssp.default_budget n
  in
  check ~what:"Avoid_region.node_avoid" ~n idx tree ~avoid:k ~dist:d;
  let source = tree.Dijkstra.source in
  Dynamic_sssp.region_begin ds n;
  Array.blit tree.Dijkstra.dist 0 d 0 n;
  d.(k) <- infinity;
  if not (mark_subtree ds ~budget idx k) then -1
  else begin
    Dynamic_sssp.region_wipe ds ~dist:d;
    Dynamic_sssp.region_reseed_node ds ~forbidden:k ~graph ~source ~dist:d;
    if
      Dynamic_sssp.region_settle_node ds ~budget ~forbidden:k ~graph ~source
        ~dist:d
    then Dynamic_sssp.region_size ds
    else -1
  end
