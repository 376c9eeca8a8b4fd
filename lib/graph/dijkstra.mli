(** Dijkstra shortest-path trees, in both cost models.

    {b Node-weighted} (Sec. II-C): the distance from the source to [v] is
    the minimum over paths of the sum of {e relay} costs — the costs of
    nodes strictly between the source and [v].  Equivalently it is a
    shortest path in the directed expansion where leaving node [u] costs
    [cost u] (0 when [u] is the source).

    {b Link-weighted} (Sec. III-F): the usual sum of directed link
    weights.

    Both solvers break priority ties by smaller node id, so trees are
    deterministic for a given input. *)

type tree = {
  source : int;
  dist : float array;  (** [dist.(v)]: cost of the best source-to-[v] path, [infinity] when unreachable. *)
  parent : int array;  (** [parent.(v)]: predecessor of [v] on its tree path, [-1] for the source and unreachable nodes. *)
}

val node_weighted : ?forbidden:(int -> bool) -> Graph.t -> source:int -> tree
(** [node_weighted g ~source] computes the node-weighted tree from
    [source].  Nodes satisfying [forbidden] are never visited nor relayed
    through (the source itself must not be forbidden).
    @raise Invalid_argument if [source] is out of range or forbidden. *)

val link_weighted : Digraph.t -> int -> tree
(** [link_weighted g source] computes the link-weighted tree following
    out-links from [source].  To get distances from every node {e to} a
    root, run this on [Digraph.reverse g] and read paths backwards.
    @raise Invalid_argument if [source] is out of range. *)

type scratch
(** A reusable single-owner workspace (dist array, heap, touched-node
    log) for distance-only runs.  Each run logs the nodes it reaches and
    the next run resets exactly those entries, so repeated runs — the
    per-relay avoidance Dijkstras of batch payment computation —
    allocate nothing but their result array and never re-fill n-sized
    buffers.  Never share one scratch between concurrent runs; give each
    {!Wnet_par} participant its own. *)

val make_scratch : int -> scratch
(** [make_scratch cap] accepts graphs of at most [cap] nodes. *)

val scratch_capacity : scratch -> int

(** {1 CSR kernels}

    The zero-allocation runs: flat {!Digraph.csr} / {!Graph.csr} rows, a
    byte-per-node ban mask in place of a [?forbidden] closure, and the
    result left {e in} the scratch.  They settle in the tree solvers'
    order, so distances are [Float.equal] to theirs. *)

val ban_mask : scratch -> Bytes.t
(** The scratch's ban mask, one byte per node: ['\000'] allowed,
    anything else banned.  Caller-managed steady state — set the bytes
    you need before a [*_scratch] run and reset them after; runs never
    clear it (an O(cap) wipe per run would defeat the touched-log
    design).  All-zero when the scratch is created. *)

val node_weighted_scratch : scratch -> Graph.t -> source:int -> float array
(** [node_weighted_scratch scratch g ~source] is
    [(node_weighted ~forbidden g ~source).dist], [forbidden] being the
    ban mask, except the returned array is the scratch's
    {e internal} distance array (length [scratch_capacity], entries
    beyond [Graph.n g] are [infinity]): read what you need before the
    next run on the same scratch overwrites it, and never mutate it.
    Allocates nothing after scratch creation.
    @raise Invalid_argument if [source] is out of range or banned, or if
    the graph exceeds the scratch capacity. *)

val link_weighted_scratch : scratch -> Digraph.t -> int -> float array
(** [link_weighted_scratch scratch g source] is
    [(link_weighted g source).dist] with the banned nodes never
    labelled, returned and raising as {!node_weighted_scratch}. *)

val node_weighted_dist_csr :
  scratch -> ?avoid:int -> Graph.t -> source:int -> float array
(** [node_weighted_dist_csr scratch ~avoid g ~source] runs the CSR
    kernel with [avoid] banned as well (in addition to any bytes the
    caller already set) and returns a {e fresh} copy of the first
    [Graph.n g] distances.  Its arguments are checked before [avoid]'s
    byte is set, so a call that raises leaves the mask as it found it.
    @raise Invalid_argument as {!node_weighted_scratch}, or when [avoid]
    is [source]. *)

val link_weighted_dist_csr :
  scratch -> ?avoid:int -> Digraph.t -> int -> float array
(** Link-weighted analogue of {!node_weighted_dist_csr}. *)

val path_to : tree -> int -> Path.t option
(** [path_to t v] is the tree path [source; ...; v], or [None] when
    unreachable. *)

val dist : tree -> int -> float

val reachable : tree -> int -> bool

val children : tree -> int array array
(** [children t] materializes the tree's child lists (index = node). *)

