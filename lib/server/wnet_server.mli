(** Sharded socket front-end for incremental payment sessions.

    One server hosts an ARRAY of {!Wnet_session.S} sessions (one per
    access point) and serves many concurrent clients over a TCP or
    Unix-domain socket, all speaking the {!Wnet_proto} grammar.  The
    server is built from three composable pieces, each usable on its
    own:

    - {!Listener} — binds and accepts; never touches an accepted
      socket beyond wrapping the fd.
    - {!Router} — maps each session id to the one shard that owns it
      (default: hash placement; {!Router.pin} is the explicit hook).
    - {!Shard} — a per-domain select loop owning a disjoint set of
      sessions and the connections attached to them.

    Connections open attached to session 0 and may move with
    [session N]; a cross-shard attach hands the whole connection —
    codec state and pending output included — to the owning shard over
    an SPSC mailbox, and the adopting shard answers with the target
    session's [ready] banner.  A connection's socket is only ever
    written by the shard that owns it, and a session is only ever
    mutated by the shard the router placed it on (enforced by
    {!Wnet_session}'s domain guard), so each session's edit stream is
    strictly serial in arrival order: payments are bit-identical to
    the single-threaded loop and the stdin oracle at every shard
    count.

    With [shards = 1] the shard loop and accept loop fuse into one
    thread — exactly the historical single-threaded server, wire
    format included ([stats] adds per-shard breakdown rows only when
    there is more than one shard).

    Every connection opens in the proto=1 line codec; [proto 2]
    switches that connection to {!Wnet_proto_bin} frames (acknowledged
    by a text [ready proto=2 ...] banner; a corrupt frame is answered
    with [err]+[bye] and a close, since binary framing cannot resync).

    Edits coalesce across clients of the same session: a burst of
    [cost] requests buffers in the session and folds into a single
    invalidation pass at the next [pay].

    Shutdown is graceful: {!shutdown} (or SIGINT/SIGTERM after
    {!install_signals}) stops the accept loop, lets every shard answer
    requests already received in full, sends [bye] to every client of
    every shard, flushes (bounded wait), closes, and removes a
    Unix-domain socket path.  Idle clients are disconnected (with
    [err idle timeout]) after [idle_timeout] seconds without a
    complete request. *)

module Spsc = Spsc
module Router = Router
module Shard = Shard
module Listener = Listener

type addr = Listener.addr =
  | Unix_path of string
  | Tcp of { host : string; port : int }
      (** [port = 0] picks an ephemeral port; see {!addr}. *)

(** Per-shard counter snapshot: connection tallies plus the roll-up of
    the sessions the shard owns ([cache_hits]/[cache_misses] are the
    avoidance-cache reuse counters, as on the [server] stats line). *)
type shard_stats = Shard.stats = {
  shard : int;
  conns : int;  (** currently connected to this shard *)
  served : int;  (** connections this shard adopted first *)
  requests : int;
  edits : int;
  coalesced : int;
  inval_passes : int;
  cache_hits : int;
  cache_misses : int;
  repaired : int;
  tasks : int;
  stolen : int;
  bytes_in : int;
  bytes_out : int;
}

type server_stats = {
  clients : int;  (** currently connected *)
  clients_served : int;  (** connections accepted over the lifetime *)
  requests : int;  (** parsed requests (including rejected ones) *)
  bytes_in : int;
  bytes_out : int;
  per_shard : shard_stats array;  (** one row per shard; the totals
                                      above are the column sums *)
}

type t

val create :
  ?backlog:int ->
  ?idle_timeout:float ->
  ?shards:int ->
  ?router:Router.t ->
  addr ->
  (module Wnet_session.S) array ->
  t
(** Bind and listen; the loops start with {!serve}.  [sessions] must
    be non-empty — clients attach to session 0 until they send
    [session N].  [shards] defaults to 1 (the fused single-threaded
    loop); [router] defaults to [Router.hash ~shards] and must be
    sized for [shards].  A stale socket file at a [Unix_path] is
    unlinked first.  [idle_timeout] (seconds, default none) bounds how
    long a client may sit without completing a request.  [backlog]
    defaults to 16.
    @raise Invalid_argument on an empty session array, [shards < 1],
    or a router/shard-count mismatch.
    @raise Unix.Unix_error when the address cannot be bound. *)

val addr : t -> addr
(** The bound address — for [Tcp] with [port = 0], the actual port. *)

val serve : t -> unit
(** Run until {!shutdown}: spawns one domain per shard (none when
    [shards = 1]) and runs the accept loop in the calling thread.
    Ignores [SIGPIPE] for the whole process (failed writes surface as
    [EPIPE] and close the one connection). *)

val shutdown : t -> unit
(** Request graceful shutdown.  Safe from a signal handler or another
    thread; {!serve} returns once every shard's drain completes.
    Idempotent. *)

val install_signals : t -> unit
(** Route SIGINT and SIGTERM to {!shutdown} of this server. *)

val stats : t -> server_stats
(** Snapshot of the per-shard counters with their totals.  The rows
    and totals come from one snapshot, so the rows always sum to the
    totals.  Valid during {!serve} and after it returns (the final
    tallies). *)

val run :
  ?backlog:int ->
  ?idle_timeout:float ->
  ?shards:int ->
  ?router:Router.t ->
  ?signals:bool ->
  ?on_listen:(t -> unit) ->
  addr ->
  (module Wnet_session.S) array ->
  server_stats
(** [run addr sessions] = {!create} + {!serve} + final {!stats}, with
    [?signals] (default false) wiring {!install_signals} and
    [?on_listen] called with the bound server before serving (print
    the resolved address, stash the handle for {!shutdown}, ...). *)
