(** Incremental all-to-access-point payment sessions, node-cost model
    (Sec. II — the paper's primary model).

    The node-model sibling of {!Link_session}: a session owns the
    graph, the shared node-weighted shortest-path tree from the access
    point (node-weighted distances are symmetric, so from-root trees
    serve to-root queries), the per-relay avoidance-distance cache, a
    {!Wnet_par} pool and per-domain Dijkstra scratches.  Deltas are a
    node's declared cost changing ({!set_cost}) and a node leaving
    ({!remove_node}).  Each coalesced burst runs the flush policy of
    {!Link_session}: the shared node-weighted tree is rebuilt at the
    flush (one Dijkstra per burst, which the next {!charges} needs
    anyway) and compared with the old one: an entry whose subtree
    changed membership is dropped, one no candidate change touches is
    kept, and a touched one is either repaired inside its subtree
    ({!Wnet_graph.Avoid_region.node_repair}) or dropped and refilled by
    the region-only kernel at the next {!charges} — whichever the cost
    model prices lower.  A node-model link weighs its tail's relay cost,
    so a cost edit on [x] changes every link out of [x].

    {b Determinism contract:} {!payments} after any edit sequence is
    bit-identical ([Float.equal], identical paths) to a from-scratch
    batch on the edited graph, checked as for {!Link_session} against
    the independent reference under [test/]. *)

type t

type outcome = {
  src : int;
  path : Wnet_graph.Path.t;  (** [src; ...; root] *)
  lcp_cost : float;  (** relay cost of the path *)
  relay_pay : float array;
      (** aligned with [path]: [relay_pay.(i)] pays [path.(i + 1)];
          [infinity] marks a monopoly (cut-vertex) relay *)
  charge : float;
      (** the total payment, [relay_pay] added from [+0.0] in ascending
          relay id (see {!Link_session.outcome}) *)
}

type stats = {
  edits : int;
  coalesced_edits : int;
      (** cost edits folded into a shared deferred-invalidation flush *)
  inval_passes : int;
      (** passes over the avoidance-cache array (flushes + leaves) *)
  spt_runs : int;  (** shared-tree Dijkstras: one per flush or edit *)
  avoid_runs : int;
      (** avoidance entries refilled at {!charges}: first fills, entries
          whose subtree changed membership, entries the cost model
          dropped, and entries whose repair overflowed *)
  avoid_reused : int;
      (** relays served at {!charges} from an exact entry (untouched or
          repaired) *)
  repaired_entries : int;
      (** touched entries the policy repaired inside their subtree (the
          tree is rebuilt, not repaired, and does not count); untouched
          entries are kept without a repair call and do not count *)
  fallback_recomputes : int;
      (** entry repairs that overflowed their budget and left the entry
          to be refilled *)
  tasks_executed : int;
      (** units of work run through the pool's work-stealing scheduler:
          one per entry repaired at a flush, one per refill *)
  tasks_stolen : int;
      (** the subset executed by a domain other than the one that queued
          them — nonzero only when stealing actually rebalanced load *)
  avoid_bounded : int;
      (** refills served by the region-only kernel: every refill *)
  avoid_fallback : int;
      (** always 0, as in {!Link_session.stats} *)
}

val create : ?pool:Wnet_par.t -> Wnet_graph.Graph.t -> root:int -> t
(** [create g ~root] opens a session on [g].  [Graph.t] is immutable,
    so the session shares the adjacency structure and swaps cost
    vectors; the caller's graph is never affected.  Cache misses are
    filled as in {!Link_session.create}: the region-only kernel over
    the shared SPT ({!Wnet_graph.Avoid_region}), with no budget and no
    fallback.
    @raise Invalid_argument if [root] is out of range. *)

val n : t -> int
val root : t -> int

val cost : t -> int -> float
(** Current declared relay cost of a node. *)

val graph : t -> Wnet_graph.Graph.t
(** The current topology (immutable value; safe to keep). *)

val version : t -> int
(** Bumps on every effective edit. *)

val set_cost : t -> int -> float -> unit
(** [set_cost s v c] re-declares node [v]'s relay cost.  The cost vector
    swaps immediately; the avoidance-cache invalidation is deferred and
    coalesced — a burst of cost edits before the next {!charges} (or
    {!remove_node}) is folded into one {!flush} pass of the flush
    policy over the burst's net changes.
    @raise Invalid_argument on a negative or non-finite cost. *)

val flush : t -> unit
(** Apply the flush policy to every buffered cost edit in one pass,
    now.  Called automatically by {!charges} and
    {!remove_node}; a no-op when nothing is buffered. *)

val remove_node : t -> int -> unit
(** [remove_node s v] isolates [v] (node leave; the identifier stays
    valid so ids are stable).
    @raise Invalid_argument when [v] is the root or out of range. *)

val charges : t -> Wnet_graph.Dijkstra.tree * float array
(** The shared from-root tree (a source's next hop towards the root is
    its [parent]) and every source's total payment, from one
    relay-major pass over the avoidance caches, as
    {!Link_session.charges}.  Shared tree recomputed only after an
    edit; avoidance arrays refilled only for relays whose cache is
    missing or was dropped, over the session's pool and per-domain
    scratches; memoized until the next edit. *)

val tree_index : t -> Wnet_graph.Avoid_region.index
(** As {!Link_session.tree_index}: the index of {!charges}' tree, the
    same value while the rebuilt tree's parents do not move. *)

val payments : t -> outcome option array
(** The all-to-root batch on the current topology, built from
    {!charges}: entry [src] is [None] for the root and disconnected
    sources.  Memoized until the next edit. *)

val relay_tables : t -> (int * float) list array
(** {!payments} reshaped the way the distributed stage-2 protocol
    reports it: entry [src] is the [(relay, payment)] table of [src]'s
    unicast, sorted by relay id; empty for the root, for sources
    adjacent to it and for disconnected sources.  This is the oracle
    side of the dsim cross-check ([Wnet_dsim.Payment_protocol]
    outcomes compare against it entry for entry). *)

val unbounded_relays : t -> int list
(** Monopoly relays as of the last {!charges}: sorted, derived from
    the cached avoidance arrays. *)

val stats : t -> stats

val region_histogram : t -> (int * int) list
(** Histogram of bounded-region sizes (successful repairs and
    subtree-bounded refills), same power-of-two size classes
    as {!Link_session.region_histogram}. *)

val entries : t -> (int * float array) list
(** The exact avoidance entries, as {!Link_session.entries}. *)
