(** The paper's strategyproof unicast pricing mechanism (Sec. III-A/B),
    node-cost model.

    Given declared costs (carried by the graph), a source and a
    destination (conventionally the access point [v_0]), the mechanism

    - routes along the least cost path [P(src, dst, d)], and
    - pays every relay [v_k] on it
      [p^k = ||P_{-v_k}(src, dst, d)|| - ||P(src, dst, d)|| + d_k];
      every other node is paid 0.

    This is the VCG mechanism for the shortest-path problem with node
    agents, hence strategyproof: truthful declaration is a dominant
    strategy, and every truthful relay has non-negative utility. *)

type algo =
  | Naive  (** one Dijkstra per relay — the [O(n^2 log n + nm)] baseline *)
  | Fast  (** Algorithm 1 — [O(n log n + m)]; requires strictly positive costs *)

type t = {
  src : int;
  dst : int;
  path : Wnet_graph.Path.t;  (** the chosen LCP *)
  lcp_cost : float;  (** its relay cost [||P||] *)
  relay_pay : float array;
      (** aligned with [path]: [relay_pay.(i)] is the payment to relay
          [path.(i + 1)]; every other node is paid 0.  [infinity] marks
          a monopoly relay (graph not biconnected). *)
  charge : float;
      (** the total payment: [relay_pay] added from [+0.0] in ascending
          relay id ({!Wnet_session.relay_charge}), bit-identical to
          folding the dense per-node vector left to right *)
}

val run : ?algo:algo -> Wnet_graph.Graph.t -> src:int -> dst:int -> t option
(** [run g ~src ~dst] executes the mechanism on the declared costs in
    [g]; [None] when [dst] is unreachable.  Default algorithm: [Fast]
    when all costs are strictly positive, [Naive] otherwise.
    @raise Invalid_argument if [src = dst] or out of range. *)

val total_payment : t -> float
(** [charge]: the sum of all payments, what the source is charged. *)

val payment_to : t -> int -> float
(** The payment to one node: its [relay_pay] entry, [0.0] off the
    relays. *)

val relays : t -> int list

val utility : t -> truth:float array -> int -> float
(** [utility r ~truth k] is [p^k - x_k c_k]: the true utility of node [k]
    under this outcome when its true cost is [truth.(k)]. *)

val overpayment : t -> float
(** [total_payment r -. lcp_cost r] — what the source pays beyond the
    declared cost of the route. *)

val session_payment_to : t -> packets:int -> int -> float
(** Sec. II-C: when costs are per packet and the source sends [packets]
    packets in one session, the actual payment to a relay is
    [packets * p^k].
    @raise Invalid_argument if [packets < 0]. *)

val session_charge : t -> packets:int -> float
(** Total session charge to the source, [packets * total_payment]. *)

val all_to_root :
  ?pool:Wnet_par.t -> Wnet_graph.Graph.t -> root:int -> t option array
(** Every node's unicast to the access point in one pass: one Dijkstra
    from [root] for the shared tree plus one avoidance search per
    distinct relay, confined to the relay's subtree of that tree
    (node-weighted distances are symmetric, so from-root trees serve
    to-root queries).  [results.(root)] is [None], as are unreachable
    sources.  It is a one-shot {!Wnet_session.Node_session}, so it runs
    the link kernels over the node model's link view, whose two weight
    arrays it builds first (O(n + m), the rows shared with [g]).

    The per-relay avoidance searches are independent; [?pool] (default
    {!Wnet_par.sequential}) fans them out over domains with positional
    merging, so the result is bit-identical for every pool size. *)

val vcg_problem : Wnet_graph.Graph.t -> src:int -> dst:int -> Wnet_mech.Vcg.problem
(** The unicast instance phrased as a generic VCG problem (agent [k]
    participates iff it relays; excluding [k] removes it from the graph).
    Used by tests to confirm that {!run} implements exactly the Clarke
    rule of {!Wnet_mech.Vcg}. *)

val mechanism : Wnet_graph.Graph.t -> src:int -> dst:int -> Wnet_mech.Vcg.solution Wnet_mech.Mechanism.t
(** Direct-revelation wrapper: re-runs the mechanism under any declared
    profile (replacing the graph's costs), for the property checkers.
    Source and destination are not agents: their declarations are ignored
    by payments (their costs never enter any path cost). *)
