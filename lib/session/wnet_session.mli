(** Incremental payment sessions, and the model-agnostic session API.

    One engine, {!Link_session}, serves the Sec. III-F link-cost model
    — mutable topology, shared SPT, per-relay avoidance caches,
    deferred coalesced invalidation, a {!Wnet_par} pool — and
    {!Node_session} serves the Sec. II node-cost model as an adapter
    over it, on the node model's link view; each exposes its model's
    graphs and deltas.  Every front-end
    (the stdin line protocol, the socket server, the bench) used to
    duplicate its serve loop per model; {!S} packages a running session
    behind one first-class signature so a single generic loop drives
    both.

    {!make} opens a session on either graph kind and returns the
    packaged instance.  All determinism contracts of the underlying
    sessions carry over: {!S.pay} is bit-identical to a from-scratch
    batch on the edited topology, at every pool size.  {!S.pay} is
    written straight from the engine's payment pass and tree into a
    flat view the session owns (no per-source records, no lists); the
    engine memoizes the pass per session version, and every {!S.pay}
    refills the view from it. *)

module Link_session = Link_session
module Node_session = Node_session

type model = [ `Node | `Link ]

type stats = Link_session.stats = {
  edits : int;
  coalesced_edits : int;
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
(** The unified work ledger, both models' ({!Node_session.stats} is
    this record: [edits] and [coalesced_edits] count its declarations,
    the rest are the link engine's over the view).  Under the
    region-only flush policy ({!Link_session}): [repaired_entries]
    counts the tree repair and every entry repaired inside its subtree; [avoid_runs]
    every refill, membership changes and cost-model drops included;
    [avoid_reused] the relays served from an exact entry, untouched or
    repaired; [fallback_recomputes] tree rebuilds and overflowed entry
    repairs; [avoid_bounded] the refills the region-only kernel served,
    which is every refill; [avoid_fallback] reads 0 (fills have no
    budget and no full-graph fallback; the field keeps the wire forms at
    12 counters); and [tasks_executed] one task per entry repair and per
    refill. *)

val zero_stats : stats
(** All counters zero. *)

val stats_field_names : string array
(** The counter keys in wire order ([edits], [coalesced], ...,
    [avoid_fallback]); index [i] names the [i]-th token of the stats
    line. *)

val to_fields : stats -> (string * int) list
(** The record as [(key, value)] pairs in wire order.  The text
    protocol prints the stats line from this — adding a counter to the
    layout table updates printing, parsing and the key list at once. *)

val of_fields : int list -> (stats, string) result
(** Rebuild a record from its counters in wire order (the values of
    {!to_fields}, keys already checked by the caller); any other count
    than {!stats_field_names}' is an [Error]. *)

(** A topology delta, covering both models.  [Set_node_cost] is valid
    only on [`Node] sessions; [Set_link_cost], [Join] and [Rejoin] only
    on [`Link] sessions; [Leave] on both. *)
type delta =
  | Set_node_cost of { node : int; cost : float }
  | Set_link_cost of { u : int; v : int; w : float }
  | Join of { out : (int * float) list; inn : (int * float) list }
  | Rejoin of { node : int; out : (int * float) list; inn : (int * float) list }
  | Leave of { node : int }

type ack = { version : int; node : int option }
(** Result of a delta: the session version after it, and the id
    assigned by [Join]. *)

type pay = {
  mutable count : int;  (** served sources: reachable, not the root *)
  mutable src : int array;  (** [src.(i)], [i < count]: ascending ids *)
  mutable off : int array;
      (** source [i]'s path is [hops.(off.(i)) .. hops.(off.(i + 1) - 1)],
          source first, root last *)
  mutable hops : int array;  (** every path, concatenated *)
  mutable charge : float array;
      (** [charge.(i)]: source [i]'s total payment; [infinity] = a
          monopoly relay *)
  mutable unbounded : int;  (** served sources whose charge is [infinity] *)
  mutable total : float;
      (** the finite charges, added in ascending source order *)
}
(** A session's pay view: flat arrays the session owns and refills in
    place on every {!S.pay}.  The arrays may be longer than the view;
    read them through [count] and [off].  The view is valid until the
    session's next [apply], [flush] or [pay]: copy what must outlive
    that. *)

val fresh_pay :
  root:int -> Wnet_graph.Dijkstra.tree * float array -> pay
(** [fresh_pay ~root (tree, charge)] is a new view filled from a payment
    pass (a session engine's [charges]): every field written from
    scratch, as a session's first {!S.pay} writes its own view.  What a
    session's kept view is held to. *)

val sum_payments : float array -> float
(** The total of a dense payment vector, added left to right from
    [0.0]: bit-identical to [Array.fold_left ( +. ) 0.0], [infinity]
    and [-0.0] included, without boxing a float per element.  The
    mechanisms that keep a dense vector ([Payment_scheme],
    [Edge_unicast]) total through it. *)

val relay_charge : Wnet_graph.Path.t -> float array -> float
(** [relay_charge path relay_pay] totals path-aligned relay payments
    ([relay_pay.(i)] pays [path.(i + 1)]) from [+0.0] in ascending relay
    id: bit-identical to {!sum_payments} of the dense per-node vector
    they stand for, whose other entries are [+0.0].  Single-pair runs
    total through it; the sessions get the same sums from their
    relay-major pass. *)

val relay_payment : Wnet_graph.Path.t -> float array -> int -> float
(** [relay_payment path relay_pay v] is [v]'s entry of path-aligned
    relay payments, [0.0] when [v] does not relay on [path]. *)

(** A running session, model-erased.  Operations raise [Failure] on a
    delta the model does not support and [Invalid_argument] exactly as
    the underlying engine.

    Sessions are {e single-owner}: the instance binds to the first
    domain that calls {!S.apply}, {!S.pay} or {!S.flush} and raises
    [Failure] if another domain mutates it afterwards — the sharded
    socket server places each session on exactly one shard domain, and
    this guard turns a placement bug into a loud failure instead of a
    data race.  Read-only accessors ([n], [version], [stats], ...) stay
    unguarded so cross-shard counter roll-ups can snapshot them. *)
module type S = sig
  val model : model
  val root : int
  val domains : int  (** pool size payments fan out over *)

  val n : unit -> int
  val version : unit -> int
  val apply : delta -> ack
  val pay : unit -> pay
  (** The all-to-root payments at the current version, as the session's
      own {!pay} view, refilled in place.  [src], [off] and [hops]
      depend only on the shared tree's parents: the view keeps the
      engine's tree index they were written under
      ({!Link_session.tree_index}, kept while no parent moves) and,
      while the engine returns that index, refills only [charge],
      [unbounded] and [total] ([total] still added in ascending source
      order, so bit-identical).  The view then equals {!fresh_pay} of
      the same pass, field for field. *)

  val flush : unit -> unit
  val stats : unit -> stats
end

val make :
  ?pool:Wnet_par.t ->
  root:int ->
  [ `Node of Wnet_graph.Graph.t | `Link of Wnet_graph.Digraph.t ] ->
  (module S)
(** [make ~root (`Link g)] (resp. [`Node g]) opens an incremental
    session on [g] and packages it behind {!S}.  The session never
    writes the caller's graph (a link session deep-copies it, a node
    session's view shares only its immutable row offsets and
    targets).  [?pool] defaults to
    {!Wnet_par.sequential}.
    @raise Invalid_argument if [root] is out of range. *)
