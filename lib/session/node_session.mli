(** Incremental all-to-access-point payment sessions, node-cost model
    (Sec. II — the paper's primary model).

    An adapter over a {!Link_session} running on the node model's link
    view ({!Wnet_graph.Digraph.node_view}): the link [y -> x] weighs
    [x]'s declared relay cost, and a link into the access point weighs
    0, so a path's link weights add up to its relay cost and the
    reversed search from the access point is the node-weighted one,
    label for label and parent for parent.  A declaration on [x]
    ({!set_cost}) is a {e degree burst}: one link edit per neighbour of
    [x], which the link engine buffers, coalesces and flushes with the
    rest of the burst (its shared tree repaired in place, its avoidance
    entries kept, repaired or dropped by the flush policy); a
    declaration on the access point changes no link.  A leave
    ({!remove_node}) is the link engine's.  The payment pass pays relay
    [k] by the node model, [c_k +. a -. d], reading [c_k] off the view
    (every reversed link out of [k] weighs it).

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

type stats = Link_session.stats = {
  edits : int;  (** effective declarations and leaves *)
  coalesced_edits : int;
      (** declarations on nodes other than the access point folded into
          a flush (a [k]-declaration burst adds [k], whatever the
          degrees) *)
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
(** [edits] and [coalesced_edits] count node declarations; every other
    counter is the link engine's ({!Link_session.stats}), over the
    view's links: an invalidation pass per flush with a net link edit
    and per leave (a declaration on the access point or on an isolated
    node makes none), the shared tree's repairs and rebuilds in
    [repaired_entries], [fallback_recomputes] and [spt_runs]. *)

val create : ?pool:Wnet_par.t -> Wnet_graph.Graph.t -> root:int -> t
(** [create g ~root] opens a session on [g]'s link view: both
    orientations share [g]'s row offsets and targets and hold one
    weight array each, built in O(n + m) with no copy of [g] and no
    transpose.  [Graph.t] is immutable, so the session keeps [g] for
    {!graph} and {!cost} and swaps its cost vector per declaration; the
    caller's graph is never affected.  Cache misses are filled as in
    {!Link_session.create}.
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
(** [set_cost s v c] re-declares node [v]'s relay cost: the cost vector
    swaps, and each link into [v] (one per neighbour) takes weight [c]
    through {!Link_session.set_node_cost}, unless [v] is the access
    point.
    The invalidation is deferred and coalesced: a burst of declarations
    before the next {!charges} (or {!remove_node}) is folded into one
    {!flush} pass of the flush policy over the burst's net link
    changes.
    @raise Invalid_argument, before any change, when [v] is out of
    range or [c] is negative or non-finite. *)

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
    {!Link_session.charges}, whose memo it shares: a declaration on
    the access point leaves it valid. *)

val tree_index : t -> Wnet_graph.Avoid_region.index
(** As {!Link_session.tree_index}: the index of {!charges}' tree, the
    same value while the tree's parents do not move. *)

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
