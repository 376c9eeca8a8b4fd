(** The link-cost mechanism of Sec. III-F.

    When nodes can adjust transmission power, node [i]'s private type is
    the {e vector} [c_i = (c_{i,0}, ..., c_{i,n-1})] of per-neighbour
    power costs and the network is a directed link-weighted graph (see
    {!Wnet_graph.Digraph}).  The mechanism computes a least-cost directed
    path from the source to the access point and pays each node [v_k] on
    it (other than the endpoints)

    [p^k = sum_j x_{k,j} d_{k,j} + Delta_{i,k}]

    — the declared cost of the link it actually transmits on, plus the
    improvement [Delta_{i,k}] the presence of [v_k] brings to the least
    cost path (computed by silencing all of [v_k]'s outgoing links, the
    paper's [d|^k infinity]).  This is a VCG mechanism for vector-typed
    agents, hence truthful. *)

type t = {
  src : int;
  dst : int;
  path : Wnet_graph.Path.t;
  lcp_cost : float;  (** full directed path cost, including the source's own first link *)
  relay_cost : float;
      (** [lcp_cost] minus the source's first-link cost: the cost incurred
          by the {e paid} nodes.  Overpayment ratios use this, matching
          the node-cost model's "relay cost" convention. *)
  relay_pay : float array;
      (** aligned with [path]: [relay_pay.(i)] pays [path.(i + 1)];
          [infinity] marks a monopoly transmitter.  Every other node is
          paid nothing. *)
  charge : float;
      (** the total payment: [relay_pay] added from [+0.0] in ascending
          relay id ({!Wnet_session.relay_charge}), bit-identical to
          folding the dense per-node vector left to right *)
}

val run : Wnet_graph.Digraph.t -> src:int -> dst:int -> t option
(** Single source–destination pair; [None] when no directed path exists.
    @raise Invalid_argument if [src = dst] or out of range. *)

val total_payment : t -> float
(** [charge]: what the source is charged. *)

val payment_to : t -> int -> float
(** The payment to one node: its [relay_pay] entry, [0.0] off the
    relays. *)

type batch = {
  root : int;
  to_root_dist : float array;  (** [dist v -> root] for every [v] *)
  results : t option array;  (** per-source outcome, [None] when disconnected; entry [root] is [None] *)
}

val all_to_root : ?pool:Wnet_par.t -> Wnet_graph.Digraph.t -> root:int -> batch
(** Every node's unicast to the access point at once — the workload of
    the paper's simulations.  Runs one reverse Dijkstra for the shared
    shortest-path tree plus one avoidance search per distinct relay,
    each confined to the relay's subtree of that tree (exterior labels
    are the tree's), so the whole batch costs at most
    O(#relays * (m + n log n)) instead of O(n * #relays * ...) for
    repeated {!run} calls.  It is a one-shot {!Wnet_session.Link_session}.

    [?pool] (default {!Wnet_par.sequential}) fans the per-relay
    avoidance searches out over domains with positional merging: the
    batch is bit-identical for every pool size.
    @raise Invalid_argument if [root] is out of range. *)

val ic_spot_check :
  Wnet_prng.Rng.t ->
  Wnet_graph.Digraph.t ->
  src:int -> dst:int -> trials:int ->
  (int * float) list
(** Empirical incentive-compatibility falsifier for the vector-typed
    setting: each trial picks a node and a random rescaling/perturbation
    of its whole declared out-link vector, and compares its true utility
    (payment minus true cost of the link it transmits on) against
    truthful play.  Returns [(agent, gain)] for strict improvements —
    expected empty. *)
