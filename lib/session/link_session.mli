(** Incremental all-to-access-point payment sessions, link-cost model
    (Sec. III-F).

    An access point in the paper's model does not face one-shot
    instances: declared costs drift, nodes join and leave, and each
    topology delta invalidates only a sliver of the previous batch's
    work.  A session owns the mutable topology and every cache the
    batch payment engine builds from it:

    - the shared reversed-graph shortest-path tree (one Dijkstra),
    - the per-relay avoidance entries: relay [j]'s holds the labels of
      the [j]-avoiding search on [j]'s subtree of the shared tree
      (elsewhere they equal the tree's),
    - a {!Wnet_par} domain pool and one Dijkstra scratch per domain,
      alive across requests.

    The delta API ({!set_cost}, {!add_node}, {!remove_node}) updates
    the graph in place, and each coalesced burst is followed by one
    {e flush policy}:

    - the shared tree is repaired in place over the burst's affected
      region ({!Wnet_graph.Dynamic_sssp}), falling back to a
      from-scratch run on an oversized region or a bit-equal parent
      tie;
    - an entry whose subtree gained or lost a node (a reparent moved
      it) is dropped;
    - every other entry is tested against the burst's candidate
      changes — each edited link, and each link out of a node whose
      tree label moved — that enter its subtree.  An entry none
      touches is kept as it is;
    - a touched entry is either repaired inside its subtree with the
      changes that touch it, or dropped.  Dropped entries are refilled
      at the next {!charges} by the region-only kernel
      ({!Wnet_graph.Avoid_region}), into their own storage.  A cost
      model picks the cheaper per entry, from subtree sizes in the
      repaired tree: the labels the touching changes can disturb,
      priced apart for rises and falls, against the relay's own
      subtree.

    Every branch is exact, so the policy moves time, never a payment.

    {b Determinism contract:} after any edit sequence, {!payments} is
    bit-identical ([Float.equal], including [infinity] payments for
    cut-vertex relays and identical paths) to a from-scratch batch on
    the edited graph.  The qcheck suites drive random edit sequences
    against an independent reference under [test/] that runs one
    Dijkstra per relay on a rebuilt adjacency. *)

type t

type outcome = {
  src : int;
  path : Wnet_graph.Path.t;  (** [src; ...; root] *)
  lcp_cost : float;  (** full directed path cost *)
  relay_cost : float;  (** [lcp_cost] minus the source's first link *)
  relay_pay : float array;
      (** aligned with [path]: [relay_pay.(i)] pays [path.(i + 1)];
          [infinity] marks a cut-vertex (monopoly) relay.  Every other
          node is paid nothing. *)
  charge : float;
      (** the total payment: [relay_pay] added from [+0.0] in ascending
          relay id, bit-identical to folding the dense per-node vector
          left to right *)
}

type batch = {
  root : int;
  to_root_dist : float array;
  results : outcome option array;
      (** per source; [None] for the root and disconnected nodes *)
}

type stats = {
  edits : int;  (** delta operations applied *)
  coalesced_edits : int;
      (** cost edits whose cache invalidation was deferred and folded
          into a shared flush pass (every buffered edit counts, so a
          [k]-edit burst adds [k] here and 1 to [inval_passes]) *)
  inval_passes : int;
      (** passes over the avoidance-cache array: one per {!flush} with a
          non-empty net burst, one per join/leave/rejoin *)
  spt_runs : int;  (** shared-tree Dijkstras (initial build + rebuilds) *)
  avoid_runs : int;
      (** avoidance entries refilled at {!charges}: first fills, entries
          whose subtree changed membership, entries the cost model
          dropped, and entries whose repair overflowed *)
  avoid_reused : int;
      (** relays served at {!charges} from an exact entry: one no
          candidate change touched, or one repaired in place *)
  repaired_entries : int;
      (** structures patched in place: the shared tree once per flush
          (unless rebuilt), plus each touched entry the policy repaired
          inside its subtree.  Untouched entries are kept without a
          repair call and do not count *)
  fallback_recomputes : int;
      (** repairs that could not finish in place: a shared-tree rebuild
          (oversized region, or a bit-equal tie that could flip a
          parent), or an entry repair that overflowed its budget and
          left the entry to be refilled *)
  tasks_executed : int;
      (** units of work run through the pool's work-stealing scheduler:
          one per entry repaired at a flush, one per refill.  A kept
          entry and a dropped one make no task at the flush *)
  tasks_stolen : int;
      (** the subset executed by a domain other than the one that queued
          them — nonzero only when stealing actually rebalanced load *)
  avoid_bounded : int;
      (** refills served by the region-only kernel (only the relay's
          SPT subtree computed, exterior labels read off the shared
          tree): every refill *)
  avoid_fallback : int;
      (** always 0: fills have no budget and no full-graph fallback.
          Kept for the 12-counter stats wire forms *)
}

val create : ?pool:Wnet_par.t -> Wnet_graph.Digraph.t -> root:int -> t
(** [create g ~root] opens a session on a copy of [g] (three array
    copies), so later edits never touch the caller's graph.
    [?pool] (default {!Wnet_par.sequential}) fans avoidance Dijkstras
    out over domains; every pool size yields bit-identical payments.
    A cache miss is filled by the region-only kernel
    ({!Wnet_graph.Avoid_region}): exterior distances come from the
    shared SPT and only the relay's subtree is recomputed, whatever
    its size.
    @raise Invalid_argument if [root] is out of range. *)

val of_node_model : ?pool:Wnet_par.t -> Wnet_graph.Graph.t -> root:int -> t
(** [of_node_model g ~root] opens a session on the node model's link
    view of [g] ({!Wnet_graph.Digraph.node_view}), which pays by the node
    model: relay [k] declares the weight of its reversed links, [c_k],
    not its tree link's (which weighs its parent's cost), and a source
    pays it [c_k +. a -. d] (the node model's association, which
    [test/]'s reference fixes) instead of [c_k +. (a -. d)].  The
    relay's cost is read off the view, which holds while every link
    into a node weighs the same: such a session takes whole
    declarations ({!set_node_cost}) and leaves ({!remove_node}), and
    refuses {!set_cost}, {!add_node} and {!rejoin_node}.
    {!Node_session} is built on it.
    @raise Invalid_argument if [root] is out of range. *)

val n : t -> int
val root : t -> int

val cost : t -> int -> int -> float
(** Current declared cost of a link, [infinity] when absent.
    @raise Invalid_argument if an endpoint is out of range. *)

val version : t -> int
(** The underlying graph's version stamp; bumps on every edit. *)

val snapshot : t -> Wnet_graph.Digraph.t
(** A fresh immutable copy of the current topology — what a
    from-scratch oracle should be run on. *)

val set_cost : t -> int -> int -> float -> unit
(** [set_cost s u v w] sets the declared cost of link [u -> v]:
    update, insert, or remove ([w = infinity]).  The graph mutates
    immediately, but cache maintenance is {e deferred}: a burst of cost
    edits arriving before the next {!charges} (or structural delta) is
    coalesced into one {!flush} pass that applies the flush policy to
    the burst's net link changes, instead of one pass per edit.  Edits
    reverted within a burst cancel out entirely.
    @raise Invalid_argument, before any change, on a session made by
    {!of_node_model}, when an endpoint is out of range, and as
    {!Wnet_graph.Digraph.set_weight} otherwise (self-loop, NaN or
    negative weight). *)

val set_node_cost : t -> int -> float -> unit
(** [set_node_cost s x c], on a session made by {!of_node_model},
    re-declares [x]'s relay cost: every link into [x] (one per
    neighbour) takes weight [c], each a link edit of the pending burst,
    coalesced and flushed as {!set_cost}'s.  A declaration on the root
    moves no link.
    @raise Invalid_argument, before any change, on a session made by
    {!create}, when [x] is out of range, or when [c] is negative, NaN
    or infinite. *)

val flush : t -> unit
(** Fold the cost edits buffered since the last flush into one pass of
    the flush policy, now: the shared tree is repaired, and every exact
    avoidance cache is kept, repaired or dropped.  Called automatically
    by {!charges} and by the structural deltas ({!add_node},
    {!remove_node}, {!rejoin_node}); calling it after every edit
    reproduces eager per-edit maintenance (what the bench's
    one-at-a-time baseline does).  A no-op when nothing is buffered. *)

val add_node :
  t -> out:(int * float) list -> inn:(int * float) list -> int
(** [add_node s ~out ~inn] joins a new node with declared out-links
    [out = (target, cost)] and in-links [inn = (source, cost)], and
    returns its identifier.  The newcomer's links enter the flush
    policy as insertions: the entries whose subtree the newcomer
    enters are dropped, caches the links cannot improve are kept, the
    others repaired or dropped.
    @raise Invalid_argument on a session made by {!of_node_model}, or
    on invalid endpoints or weights, before the pending burst is
    flushed: a refused join changes nothing. *)

val remove_node : t -> int -> unit
(** [remove_node s v] detaches every link incident to [v] — the paper's
    node-leave.  The identifier remains valid (isolated), so ids are
    stable; the node may rejoin via {!rejoin_node}.
    @raise Invalid_argument when [v] is the root or out of range, before
    the pending burst is flushed. *)

val rejoin_node :
  t -> int -> out:(int * float) list -> inn:(int * float) list -> unit
(** [rejoin_node s v ~out ~inn] re-attaches an isolated node (one that
    {!remove_node} detached, or that joined linkless) under its existing
    identifier — the node-rejoin half of churn.  The links enter the
    flush policy as one burst of insertions, exactly as in
    {!add_node}.
    @raise Invalid_argument on a session made by {!of_node_model}, when
    [v] is the root, out of range, or not isolated, or on invalid
    endpoints or weights, before the pending burst is flushed. *)

val charges : t -> Wnet_graph.Dijkstra.tree * float array
(** [charges s] brings the session up to date and returns the shared
    reversed-graph tree (a source's next hop towards the root is its
    [parent]; unreached sources have [dist = infinity]) and every
    source's total payment, from one relay-major pass over the
    avoidance caches (DESIGN.md, "Payment assembly").  Flushes, then
    refills only the relays whose cache is missing or was dropped
    (fanned out over the pool, through the session's per-domain
    scratches, each into its own array).  A charge is [+0.0] for the
    root, for sources next to it and for unreached sources.  Memoized
    until the next edit; both values are the session's own and valid
    until then. *)

val tree_index : t -> Wnet_graph.Avoid_region.index
(** The pre-order index of the tree {!charges} returns (called first).
    An index depends only on the tree's parents, and the session keeps
    its own, physically the same value, across every flush that moves
    no parent and adds no node; a moved parent or a new node always
    makes a new one.  So what the parents alone determine may be kept
    under it, compared with [==]. *)

val payments : t -> batch
(** The all-to-root batch for the current topology, one outcome per
    served source, built from {!charges}; memoized until the next
    edit. *)

val unbounded_relays : t -> int list
(** Cut-vertex relays as of the last {!charges} call: relays whose
    removal disconnects some served source from the root, making their
    VCG payment unbounded (Sec. III-G).  Tracked from the cached
    avoidance arrays — no extra graph traversal.  Sorted ascending. *)

val stats : t -> stats
(** Cumulative work counters — the incremental-vs-batch ledger. *)

val region_histogram : t -> (int * int) list
(** Histogram of bounded-region sizes over every successful repair
    (shared tree and avoidance entries alike) and every
    subtree-bounded refill, as [(class lower bound, count)]
    pairs with power-of-two size classes [{0}, {1}, [2,4), [4,8), ...]
    — ascending, zero-count classes omitted. *)

val entries : t -> (int * float array) list
(** The exact avoidance entries, as [(relay, array)] in ascending relay
    order.  Relay [j]'s array holds the labels of the [j]-avoiding
    search on [j]'s strict descendants in the current shared tree
    ([fst (charges t)]) and nothing meaningful elsewhere.  For tests. *)
