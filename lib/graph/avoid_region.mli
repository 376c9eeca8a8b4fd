(** Subtree-bounded avoidance distances for batch payments.

    The payment batch needs, for each relay [k], the distances of a
    source Dijkstra with [k] forbidden.  Silencing [k] only changes
    labels inside [k]'s subtree of the shared shortest-path tree; every
    exterior node keeps a label bit-identical to its tree distance.  So
    instead of a full-graph run per relay, the fills recompute
    subtree([k]) minus [k] over a working copy of the tree's labels
    ({!Dynamic_sssp.fill_link}), reading every label outside it from the
    tree, and the repairs run {!Dynamic_sssp.repair_scoped} over the
    same range.

    A fill's result is {e unconditionally} [Float.equal]-identical to the
    from-scratch forbidden run — no tie detection needed, because every
    region label is a minimum over the same float candidate sums either
    way — and its work is bounded by the subtree, so it has no budget
    and no fallback.  A repair keeps a budget, since it discovers its
    region as it runs.

    The link kernels are allocation-free after scratch/index
    construction: safe inside the work-stealing fan-out with
    per-participant scratches.  Sec. II's node model runs on them
    through its link view ({!Digraph.node_view}); {!node_avoid} builds
    that view per call. *)

type index = private {
  idx_n : int;  (** nodes the index was built over *)
  pre : int array;
      (** [pre.(x)]: [x]'s number in a pre-order walk of the tree (child
          lists ascending), [-1] for a node the tree does not reach *)
  size : int array;
      (** [size.(x)]: [x] plus its descendants; 1 for an unreached node *)
  order : int array;
      (** the reached nodes in pre-order: [order.(pre.(x)) = x], so the
          strict descendants of [k] are
          [order.(pre.(k) + 1) .. order.(pre.(k) + size.(k) - 1)] *)
}
(** A pre-order numbering of a {!Dijkstra.tree}.  Valid only for the
    tree it was built from; rebuild after the tree changes. *)

val make_index : Dijkstra.tree -> index
(** O(n) construction from the tree's parent array. *)

val inside : index -> int -> int -> bool
(** [inside idx j x]: [x] is a strict descendant of [j] — two integer
    comparisons. *)

(** {1 Region-only kernels}

    These read and write [dist] on the strict descendants of [avoid]
    only, and take every other label from [tree]: the session's
    per-relay entries hold nothing else. *)

val link_fill :
  Dynamic_sssp.dist_scratch ->
  index ->
  graph:Digraph.t ->
  mirror:Digraph.t ->
  tree:Dijkstra.tree ->
  avoid:int ->
  dist:float array ->
  int
(** [link_fill ds idx ~graph ~mirror ~tree ~avoid:k ~dist] writes
    [Dijkstra.link_weighted_dist_csr ~avoid:k graph tree.source] into
    [dist] on the strict descendants of [k], bit for bit, and no other
    slot.  [tree] must be the current shortest-path tree of [graph] from
    its source, [mirror] the reverse of [graph], and [idx] built from
    [tree].  Returns the region size, [size.(k) - 1]: the fill has no
    budget and cannot fail.  The scratch's working labels are synced
    with [tree] when [idx] is not the index they were last synced for,
    or after {!Dynamic_sssp.forget_labels}: a caller that builds an
    index per tree needs nothing more and pays that n-float copy once
    per tree and scratch, and one that keeps an index while [tree]'s
    labels move (an index depends only on the parents) forgets every
    scratch's copy when they move.  On return the working labels equal
    [tree]'s labels again.
    @raise Invalid_argument if sizes disagree, [avoid] is out of range,
    or [avoid = tree.source]. *)

val link_repair :
  Dynamic_sssp.dist_scratch ->
  index ->
  graph:Digraph.t ->
  mirror:Digraph.t ->
  tree:Dijkstra.tree ->
  avoid:int ->
  dist:float array ->
  Dynamic_sssp.changes ->
  first:int ->
  last:int ->
  int
(** [link_repair ds idx ~graph ~mirror ~tree ~avoid:k ~dist ch ~first
    ~last] is {!Dynamic_sssp.repair_scoped} over the strict descendants
    of [k] in [tree], with exterior labels from [tree]: [dist] must be
    exact there for the old graph and tree, [k]'s descendants must be the
    same set in both, and the changes must include every one touching
    it.  Region size, or [-1] past {!Dynamic_sssp.default_budget}. *)

(** {1 Full arrays} *)

val link_avoid :
  Dynamic_sssp.dist_scratch ->
  index ->
  graph:Digraph.t ->
  mirror:Digraph.t ->
  tree:Dijkstra.tree ->
  avoid:int ->
  dist:float array ->
  int
(** [link_avoid ds idx ~graph ~mirror ~tree ~avoid:k ~dist] fills all of
    [dist] with the distances of [Dijkstra.link_weighted_dist_csr
    ~avoid:k graph tree.source], bit for bit: it copies the tree's
    labels, sets [dist.(k) = infinity], then runs {!link_fill}.  Same
    preconditions and result.  The result is an immediate int (no
    variant) so the call allocates nothing. *)

val node_avoid :
  Dynamic_sssp.dist_scratch ->
  index ->
  graph:Graph.t ->
  tree:Dijkstra.tree ->
  avoid:int ->
  dist:float array ->
  int
(** [node_avoid ds idx ~graph ~tree ~avoid:k ~dist] is {!link_avoid}
    over [graph]'s link view ({!Digraph.node_view} from [tree]'s
    source): it fills all of [dist] with
    [Dijkstra.node_weighted_dist_csr ~avoid:k graph ~source:tree.source],
    bit for bit, [tree] being [graph]'s node-weighted tree.  Same
    contract.  The view is built for each call, in O(n + m) and two
    m-float arrays: a caller that avoids many relays of one graph should
    build the view once and call {!link_avoid}. *)
