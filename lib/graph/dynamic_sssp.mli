(** Incremental/decremental single-source shortest-path repair.

    After a burst of link edits, the nodes whose distance (or tree
    parent) actually changes — the {e affected region} — is typically
    tiny compared to [n] (Ramalingam–Reps; Demetrescu–Italiano), so
    patching the region beats rerunning Dijkstra from scratch.  This
    module offers the two repairs the session engine needs:

    - {!apply}: repair a full shortest-path {e tree} (distances and
      parents) over a mutable {!Digraph} — the session's shared
      reversed SPT;
    - {!repair_dist}: repair a caller-owned distance-only array (no
      parents) after net edits; {!repair_scoped} runs the same repair
      inside one subtree, driven by candidate changes — the session's
      per-relay avoidance entries;
    - {!fill_link}: compute one relay's avoidance labels on its subtree
      from scratch, over working labels.

    Sec. II's node model runs on the same kernels through its link view
    ({!Digraph.node_view}), where every link out of a node weighs that
    node's relay cost.

    {b Exactness contract.}  A successful repair leaves the structure
    {e bit-identical} ([Float.equal] on every distance, [=] on every
    parent) to a from-scratch {!Dijkstra} run on the current graph.
    Distance-only repair achieves this unconditionally: distances are
    minima of the same float sums whichever path realises them.  Tree
    repair additionally fixes parents, whose from-scratch values depend
    on Dijkstra's settlement order when several predecessors tie
    bit-for-bit; whenever such a tie could make the repaired parent
    diverge, the repair {e detects it and falls back} to a from-scratch
    run instead of guessing.  Both repairs also fall back (or report
    {e overflow}) when the affected region exceeds a size budget, so the
    worst case stays a single full Dijkstra.

    {b Affected-region bound.}  A repair touches O(|R| + deg(R)·log|R|)
    work where [R] is the affected region and [deg(R)] the total degree
    of its nodes (each region node is scanned over its in-links once and
    its out-links once per settlement).

    All operations assume {e non-negative} weights, as {!Dijkstra}
    does. *)

type edit = { u : int; v : int; w0 : float; w1 : float }
(** The link [u -> v] {e of the searched graph} changed from weight
    [w0] to [w1] ([infinity] = absent, so insertions have
    [w0 = infinity] and deletions [w1 = infinity]).  Edits must be
    {e net} changes (already folded per link, [w0 <> w1] up to
    [Float.equal]) and must describe mutations {e already applied} to
    the graph (and its mirror). *)

val default_budget : int -> int
(** [default_budget n] is the region-size threshold used when [?budget]
    is omitted: beyond it, repair falls back to a from-scratch run. *)

(** {1 Tree repair} *)

type t
(** A repair state owning a shortest-path tree over a digraph it
    {e aliases} (the caller keeps mutating the graph; the state patches
    the tree to follow).  Single-owner, not thread-safe. *)

val create : graph:Digraph.t -> mirror:Digraph.t -> source:int -> t
(** [create ~graph ~mirror ~source] computes the initial tree with a
    full Dijkstra over [graph] from [source].  [mirror] must be the
    reverse of [graph] and must be kept in lockstep by the caller (the
    repair scans in-links through it).
    @raise Invalid_argument if [source] is out of range. *)

val tree : t -> Dijkstra.tree
(** The current tree.  Valid until the next {!apply}/{!rebuild}; treat
    as read-only. *)

val source : t -> int

type outcome =
  | Patched of { region : int }
      (** Repair succeeded; [region] nodes were re-examined (0 when the
          edits provably touched nothing). *)
  | Rebuilt of { reason : [ `Region | `Tie ] }
      (** Repair fell back to a full Dijkstra: the affected region
          exceeded the budget, or a bit-for-bit tie made the repaired
          parents potentially diverge from the from-scratch order. *)

val apply : ?budget:int -> t -> edit list -> outcome
(** [apply t edits] patches the tree after [edits] (already applied to
    the graph and mirror by the caller).  Handles weight changes,
    insertions, deletions, and node growth ([Digraph.add_node]: the
    state resizes itself).  Postcondition either way: the tree equals
    [Dijkstra.link_weighted graph source] bit for bit. *)

val rebuild : t -> unit
(** Unconditional from-scratch recompute (the fallback path, callable
    directly — e.g. when the caller lost track of the deltas). *)

(** {1 Distance-only repair} *)

type dist_scratch
(** Reusable workspace (heap, epoch marks, region log, working labels)
    for the distance repairs and the avoidance fills.  Single-owner: one
    concurrent run per scratch — give each {!Wnet_par} participant its
    own. *)

val make_dist_scratch : int -> dist_scratch
(** [make_dist_scratch cap] accepts graphs of at most [cap] nodes. *)

val dist_scratch_capacity : dist_scratch -> int

(** Candidate changes, flat: change [i] is the link [tail.(i) -> head.(i)]
    of the searched graph whose candidate [label tail +. weight] moved
    from [before.(i)] to [after.(i)] — an edited link, or a link whose
    tail's label moved.  Callers fill the arrays in place (after
    {!reserve_changes}), so no float crosses a call. *)
type changes = {
  mutable tail : int array;
  mutable head : int array;
  mutable before : float array;
  mutable after : float array;
  mutable len : int;  (** changes held *)
}

val make_changes : int -> changes
(** [make_changes cap] is an empty buffer with room for [cap]. *)

val reserve_changes : changes -> int -> unit
(** [reserve_changes ch k] makes room for [k] more past [ch.len]. *)

val repair_dist :
  dist_scratch ->
  ?budget:int ->
  ?forbidden:int ->
  graph:Digraph.t ->
  mirror:Digraph.t ->
  source:int ->
  dist:float array ->
  edit list ->
  [ `Patched of int | `Overflow ]
(** [repair_dist s ~graph ~mirror ~source ~dist edits] patches [dist] —
    the distance array from [source] over [graph] with node [forbidden]
    excluded from the search, exact {e before} the edits — so it is
    exact {e after} them.  Links incident to [forbidden] are invisible,
    matching [Dijkstra.link_weighted_dist_csr ~avoid:forbidden].  Returns [`Patched
    region] on success.  On [`Overflow] (region exceeded the budget)
    [dist] is {b left corrupted} and must be rebuilt from scratch.
    @raise Invalid_argument if the graph exceeds the scratch capacity
    or [dist] is shorter than the graph.

    Each net edit becomes one candidate change (its candidates read off
    [dist]) and the repair is {!repair_scoped}'s, over the whole graph. *)

val repair_scoped :
  dist_scratch ->
  budget:int ->
  forbidden:int ->
  graph:Digraph.t ->
  mirror:Digraph.t ->
  source:int ->
  scope:int array ->
  lo:int ->
  hi:int ->
  ext:float array ->
  dist:float array ->
  changes ->
  first:int ->
  last:int ->
  int
(** [repair_scoped s ~budget ~forbidden ~graph ~mirror ~source ~scope
    ~lo ~hi ~ext ~dist ch ~first ~last] repairs [dist] on the scope
    [S = { x | lo < scope.(x) <= hi }] only: [dist] is read and written
    on [S] alone, and a label outside it is [ext]'s.  Before the call,
    [dist] on [S] must be exact for the [forbidden]-avoiding search with
    exterior labels at their old values and the links at their old
    weights; changes [first .. last - 1] of [ch] must include every
    candidate change into [S] that touches [dist] (a new candidate below
    its head's label, or an old one equal to it that rose), and every
    head must lie in [S], with no tail or head [forbidden] or [source].
    [ext] must hold the new exterior labels, exact for the search.  On
    return [dist] is exact on [S], bit for bit.  Closure, wipe, reseed
    and settle never mark a node outside [S].  Returns the region size,
    or [-1] past [budget] (with [dist] left corrupted on [S]); an
    immediate int, so the call allocates nothing.  {!repair_dist} is the
    unscoped case.
    @raise Invalid_argument if [dist] is shorter than the graph. *)

(** {1 Avoidance fills}

    {!Avoid_region}'s kernel: the labels of the search with one node
    silenced, on that node's subtree of the shared tree, computed over
    the scratch's {e working labels} — an n-float copy of the tree's
    labels that the fill moves only on the subtree and restores before
    it returns.  The copy is made when [pre] is not the array of the
    last copy, or after {!forget_labels}.  So a caller that builds one
    [pre] per tree (an {!Avoid_region.index}'s) needs nothing more and
    pays the copy once per tree and scratch; a caller that keeps [pre]
    while the tree's labels move (the parents did not) must call
    {!forget_labels} on every scratch when they move, or the next fill
    reads the previous labels.  Allocation-free. *)

val fill_link :
  dist_scratch ->
  forbidden:int ->
  graph:Digraph.t ->
  mirror:Digraph.t ->
  pre:int array ->
  order:int array ->
  lo:int ->
  hi:int ->
  tree:float array ->
  dist:float array ->
  unit
(** [fill_link s ~forbidden:k ~graph ~mirror ~pre ~order ~lo ~hi ~tree
    ~dist] writes into [dist], on [R = order.(lo + 1 .. hi)] and nowhere
    else, the labels of [Dijkstra.link_weighted_dist_csr ~avoid:k graph]
    from the tree's source, bit for bit.  [tree] must be that source's
    exact labels over [graph] ([infinity] where unreached), [mirror] the
    reverse of [graph], and [R] the strict descendants of [k] in a
    shortest-path tree with those labels; [pre] names that tree.  The
    heap is drained first (an overflowed repair may leave entries), and
    on return the working labels equal [tree] again and the heap is
    empty.  The work is bounded by [R] and its links: there is no
    budget.
    @raise Invalid_argument if the graph exceeds the scratch capacity. *)

val forget_labels : dist_scratch -> unit
(** Drop the working labels' key: the next fill copies the tree's
    labels whatever [pre] it is given. *)

val working_labels : dist_scratch -> float array
(** The scratch's working labels, read-only: between fills, on the
    graph's nodes, the labels of the tree the last fill synced with. *)

val frontier : dist_scratch -> int
(** Keys left in the scratch's heap: 0 after every fill and every
    completed repair. *)
