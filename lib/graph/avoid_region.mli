(** Subtree-bounded avoidance distances for batch payments.

    The payment batch needs, for each relay [k], the distances of a
    source Dijkstra with [k] forbidden.  Silencing [k] only changes
    labels inside [k]'s subtree of the shared shortest-path tree; every
    exterior node keeps a label bit-identical to its tree distance.  So
    instead of a full-graph run per relay, these kernels copy the tree
    distances, mark subtree([k]) minus [k] as the affected region, and
    run {!Dynamic_sssp}'s wipe / boundary-reseed / bounded-settle
    discipline over just that region.

    The result is {e unconditionally} [Float.equal]-identical to the
    from-scratch forbidden run — no tie detection needed, because every
    region label is a minimum over the same float candidate sums either
    way.  The only fallback trigger is the region-size budget.

    Allocation-free after scratch/index construction: safe inside the
    work-stealing fan-out with per-participant scratches. *)

type index
(** First-child / next-sibling lists over a {!Dijkstra.tree}, for O(1)
    child enumeration during subtree marking.  Valid only for the tree
    it was built from; rebuild after the tree changes. *)

val make_index : Dijkstra.tree -> index
(** O(n) construction from the tree's parent array. *)

val index_size : index -> int
(** Number of nodes the index was built over. *)

val descendants : index -> int -> int array -> int
(** [descendants idx k buf] writes the strict descendants of [k] in the
    indexed tree into [buf], breadth-first, and returns their count.
    [buf] must hold at least as many slots as the index has nodes.
    Allocates nothing. *)

val subtree_sizes : index -> Dijkstra.tree -> int array
(** [subtree_sizes idx tree] counts, for every node, itself plus its
    descendants in [tree] (the tree [idx] was built from).  Nodes the
    tree does not reach count 1.  O(n); allocates two [n]-arrays. *)

val link_avoid :
  Dynamic_sssp.dist_scratch ->
  ?budget:int ->
  index ->
  graph:Digraph.t ->
  mirror:Digraph.t ->
  tree:Dijkstra.tree ->
  avoid:int ->
  dist:float array ->
  int
(** [link_avoid ds idx ~graph ~mirror ~tree ~avoid:k ~dist] fills
    [dist] with the distances of [Dijkstra.link_weighted_dist_csr
    ~avoid:k graph tree.source], bit for bit.  [tree] must be the
    current shortest-path tree of [graph] from its source, [mirror] the
    reverse of [graph], and [idx] built from [tree].  Returns the
    region size [>= 0] on success; returns [-1] — with [dist] left
    corrupted — when the subtree or settled region exceeded [budget]
    (default {!Dynamic_sssp.default_budget}), and the caller must fall
    back to the full-graph kernel.  The result is an immediate int (no
    variant) so the call allocates nothing.
    @raise Invalid_argument if sizes disagree, [avoid] is out of range,
    or [avoid = tree.source]. *)

val node_avoid :
  Dynamic_sssp.dist_scratch ->
  ?budget:int ->
  index ->
  graph:Graph.t ->
  tree:Dijkstra.tree ->
  avoid:int ->
  dist:float array ->
  int
(** Node-weighted analogue: matches [Dijkstra.node_weighted_dist_csr
    ~avoid:k graph tree.source] bit for bit.  Same contract. *)
