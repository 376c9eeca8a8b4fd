(** Node-avoiding replacement paths for VCG payments (Algorithm 1).

    The payment to relay [v_k] on the least-cost path needs
    [||P_{-v_k}(src, dst)||] — the cost of the best path that does not use
    [v_k] — for {e every} relay on the LCP.

    Two implementations are provided:

    - {!replacement_costs_naive}: remove each relay in turn and re-run
      Dijkstra — [O(s (n log n + m))] for [s] relays, the baseline the
      paper compares against;
    - {!replacement_costs_fast}: the paper's Algorithm 1, a node-weighted
      adaptation of Hershberger–Suri, running in [O(n log n + m)] total.

    The fast algorithm classifies every node by its {e level} — the index
    of the path node at which its shortest-path-tree branch leaves the LCP
    — and finds, for each removed relay [v_{r_l}], the cheapest way to jump
    from the region that still reaches the source ([level < l]) to the
    region that still reaches the destination ([level > l]), either across
    a single edge (step 5's lazy heap) or through the pocket of nodes
    stranded at level [l] exactly (steps 3–4's per-level Dijkstra for
    [R^{-l}]).

    {b Precondition for the fast algorithm}: strictly positive node costs.
    With zero-cost nodes, ties between equal-cost shortest paths can break
    the level-monotonicity lemmas (Lemmas 1–3) the algorithm relies on;
    validation rejects such inputs. *)

type result = {
  path : Path.t;  (** the LCP [src; ...; dst] under the graph's costs *)
  lcp_cost : float;  (** its relay cost *)
  replacement : float array;
      (** [replacement.(l)], for [1 <= l <= hops-1], is
          [||P_{-path.(l)}(src, dst)||]; [infinity] when removing that
          relay disconnects [src] from [dst].  Entries [0] and [hops] are
          unused and set to [nan]. *)
}

val replacement_costs_naive : Graph.t -> src:int -> dst:int -> result option
(** [None] when [dst] is unreachable from [src].
    @raise Invalid_argument if [src = dst] or out of range. *)

val replacement_costs_fast : Graph.t -> src:int -> dst:int -> result option
(** Same contract as {!replacement_costs_naive}, via Algorithm 1.
    @raise Invalid_argument additionally when some node cost is not
    strictly positive. *)

val avoiding_cost :
  Dijkstra.scratch -> Graph.t -> src:int -> dst:int -> avoid:int -> float
(** [avoiding_cost scratch g ~src ~dst ~avoid] is [||P_{-avoid}(src,
    dst)||], [infinity] when disconnected.  The search runs the
    allocation-free CSR kernel through [scratch], banning [avoid] via
    its {!Dijkstra.ban_mask} (set before the run, cleared after), so a
    loop of calls, as in {!replacement_costs_naive}, allocates nothing.
    @raise Invalid_argument if [avoid] is [src] or [dst], or the graph
    exceeds the scratch capacity; the mask is then left as it was. *)

val levels : Graph.t -> tree:Dijkstra.tree -> Path.t -> int array
(** [levels g ~tree path] exposes the level labelling used by the fast
    algorithm (for tests): [tree] must be the shortest-path tree rooted at
    [Path.source path] and [path] a root path of it.  Path nodes get their
    index; a non-path node gets the index where its tree branch leaves the
    path; nodes unreachable from the source get [-1]. *)
