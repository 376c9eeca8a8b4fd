(** Directed graphs with per-link weights.

    This is the network model of Sec. III-F: when nodes can adjust their
    transmission power, node [i]'s private type is the {e vector} of power
    costs [c_{i,j}] it needs to reach each neighbour [j], and the routing
    graph is directed (node [i] may reach [j] while [j] cannot reach [i]
    with its own range).  The weight of link [i -> j] is [c_{i,j}]; the
    cost of a directed path is the sum of its link weights. *)

type t

val create : n:int -> links:(int * int * float) list -> t
(** [create ~n ~links] builds a digraph on [n] nodes from
    [(src, dst, weight)] triples, in O(n + m) for [m] triples.  Parallel
    links keep the minimum weight; on equal weights the first in list
    order wins, which is what decides between a duplicate [0.0] and
    [-0.0].
    @raise Invalid_argument on out-of-range endpoints, self-loops, or
    negative/NaN weights, for the first bad triple in list order
    ([infinity] is allowed and means "no link"; such links are
    dropped). *)

val n : t -> int

val m : t -> int
(** Number of directed links. *)

val out_degree : t -> int -> int

val weight : t -> int -> int -> float
(** [weight g u v] is the weight of link [u -> v], or [infinity] when
    absent.  The float comes back boxed unless the call is inlined; a
    loop reads {!slot} and the {!csr} [wgt] array instead. *)

val slot : t -> int -> int -> int
(** [slot g u v] is the index of link [u -> v] in the {!csr} [col] and
    [wgt] arrays, or [-1] when absent: a binary search of row [u].
    Valid until the next structural edit. *)

val links : t -> (int * int * float) list
(** All links in (src, dst) order — which is [compare] order, since a
    pair carries at most one link — in O(n + m). *)

val reverse : t -> t
(** [reverse g] flips every link — the standard trick to compute
    shortest paths from every node {e to} a fixed root (the access
    point).  One O(n + m) transpose into fresh arrays, so either graph
    can be mutated in place without affecting the other. *)

val node_view : Graph.t -> root:int -> t * t
(** [node_view g ~root] is Sec. II's node model as links (Sec. III-F),
    in both orientations.  The forward graph has a link [y -> x] for
    every edge, weighing [x]'s relay cost, or [0.0] when [x = root]: a
    path's link weights add up to its relay cost.  The second graph is
    its reverse, in which every link out of [x] weighs [x]'s cost ([0.0]
    out of [root]): the search from [root] over it is
    [Dijkstra.node_weighted g ~source:root], label for label and parent
    for parent.  Both share [g]'s CSR row offsets and targets, and hold
    one weight array each: O(n + m), no sort and no transpose.
    @raise Invalid_argument if [root] is out of range. *)

val silence_node : t -> int -> t
(** [silence_node g v] removes all links {e leaving} [v] — exactly the
    paper's [d_{k,j} = infinity for each j] operation used to compute the
    [v_k]-avoiding least cost path.  Links entering [v] remain, but they
    are dead ends for reaching anything beyond [v]. *)

(** {1 Storage}

    The graph {e is} its CSR arrays: row [u] is
    [col.(row_off.(u)) .. col.(row_off.(u+1) - 1)] with matching
    unboxed weights in [wgt], sorted by target with unique targets, and
    [col]/[wgt] hold exactly {!m} slots. *)

type csr = {
  row_off : int array;  (** [n + 1] row offsets *)
  col : int array;  (** link targets, rows sorted by target *)
  wgt : float array;  (** link weights (flat float array) *)
}

val csr : t -> csr
(** [csr g] is the stored record itself — no copy, no allocation; do
    {e not} mutate it.  Weight updates ({!set_weight} on a present
    link) write its [wgt] in place, so a held record observes them;
    a structural edit (an insert, a delete, {!set_weights} with either,
    {!add_node}, {!detach_node}) installs a fresh record, and a held
    one keeps describing the graph as it was. *)

(** {1 In-place mutation}

    The session engine ({!Wnet_session}) owns a long-lived digraph and
    applies topology deltas directly.  Every mutation bumps a
    {e version stamp}; caches derived from the graph record the version
    they were built at and refuse to serve a graph that has moved on.
    The immutable operations above are unaffected (they return fresh
    graphs with a new history).

    Costs: a weight update is a binary search and one store, and
    allocates nothing; an insert or a delete rebuilds the arrays in
    O(n + m); {!set_weights} applies any mix of updates, inserts and
    deletes with at most one rebuild; {!add_node} copies [row_off];
    {!detach_node} counts and then filters in O(n + m). *)

val version : t -> int
(** [version g] counts the in-place mutations applied to [g] since its
    construction — one per {!set_weight}, {!add_node} and
    {!detach_node} call, and one per entry of a {!set_weights} list.
    Two observations of the same version denote an identical graph. *)

val copy : t -> t
(** [copy g] is a deep copy (at version 0): three array copies, and
    mutating either graph never affects the other.  How a session takes
    ownership of its topology. *)

val set_weight : t -> int -> int -> float -> unit
(** [set_weight g u v w] sets the weight of link [u -> v] in place:
    updates it when present (no allocation), inserts it when absent,
    and {e removes} it when [w = infinity] (the paper's "declare the
    link unusable").
    @raise Invalid_argument on out-of-range endpoints, a self-loop, or
    a negative/NaN weight. *)

val set_weights : t -> (int * int * float) list -> unit
(** [set_weights g links] applies every [(u, v, w)] as {!set_weight}
    would, in list order — so a later entry for a pair wins — but
    rebuilds the arrays at most once: how a joining node attaches its
    whole link set in one merge.
    @raise Invalid_argument, before any change, as {!set_weight} on
    the first bad entry. *)

val add_node : t -> int
(** [add_node g] grows [g] by one isolated node and returns its (dense)
    identifier [n g - 1].  Wire it up with {!set_weights}. *)

val detach_node : t -> int -> unit
(** [detach_node g v] removes every link incident to [v], in either
    direction, in place.  The identifier [v] remains valid (and
    isolated), keeping node ids stable — the convention all payment
    code relies on. *)

val pp : Format.formatter -> t -> unit
