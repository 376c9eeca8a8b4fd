(** The versioned line protocol every session front-end speaks.

    One request per line, one or more single-line responses per request
    — the same grammar whether the session is driven over stdin
    ([unicast serve]), over a socket ([unicast listen] /
    {!Wnet_server}), or in-process (the tests' oracle replays).  Parsing
    and printing live here so no front-end ever re-implements them; the
    qcheck suite pins [parse ∘ print = id] on both directions.

    {2 Grammar (protocol version 1)}

    Requests (tokens separated by spaces; blank lines and [#] comments
    are ignored):
    {v
    cost K C                      re-declare node K's relay cost (node model)
    cost U V W                    re-declare link U -> V's cost (link model;
                                  W = inf removes the link)
    join  v:w ... -- u:w ...      a new node joins: out-links, --, in-links
    rejoin K v:w ... -- u:w ...   an isolated node returns under id K
    leave K                       node K departs (its id stays valid)
    pay                           all-to-root payments for the current topology
    stats                         work counters
    proto N                       switch this connection's wire codec
                                  (N = 2 selects {!Wnet_proto_bin} framing)
    session N                     attach this connection to server session N
                                  (socket server only; re-greets with the
                                  target session's ready banner)
    quit | exit                   close the session
    v}

    Responses (first token discriminates):
    {v
    ready proto=1 model=node n=12 root=0 domains=4
    ok version=5                  delta applied
    ok node=13 version=6          join applied, node id assigned
    src 3: path 3 -> 2 -> 0, charge 4.5        (one per served source)
    ok served=11 unbounded=1 total=33.25       (ends a pay reply)
    ok edits=4 coalesced=4 inval_passes=1 spt_runs=2 avoid_runs=5 avoid_reused=9 repaired=1 fallbacks=0 tasks=5 stolen=0 avoid_bounded=5 avoid_fallback=0
    server clients=2 requests=10 edits=4 coalesced=4 cache_hits=9 cache_misses=5 bytes_in=120 bytes_out=456
    shard id=0 conns=1 requests=5 edits=2 coalesced=2 inval_passes=1 cache_hits=4 cache_misses=2 repaired=0 tasks=8 stolen=0 bytes_in=60 bytes_out=228
    conn requests=3 bytes_in=40 bytes_out=152 proto=1
    bye
    err <reason>
    v}

    The parser takes exactly what the printer writes: the session-stats
    [ok] line with all twelve counters in order, and the [conn] line
    with its [proto] token.

    Floats print in the shortest decimal form that parses back to the
    identical bit pattern ([inf] for infinity), so replies round-trip
    exactly — the socket integration test compares charges received as
    text against an in-process oracle with [Float.equal]. *)

val version : int
(** Protocol version, announced in the [ready] banner.  Bump on any
    grammar change. *)

type request =
  | Cost_node of { node : int; cost : float }
  | Cost_link of { u : int; v : int; w : float }
  | Join of { out : (int * float) list; inn : (int * float) list }
  | Rejoin of { node : int; out : (int * float) list; inn : (int * float) list }
  | Leave of { node : int }
  | Pay
  | Stats
  | Proto of { proto : int }
  | Attach of { session : int }
      (** [session N] — move this connection onto server session [N]
          (a sharded server migrates the connection to the owning
          shard).  Transport-level, like {!Proto}. *)
  | Quit

type response =
  | Ready of {
      proto : int;
      model : Wnet_session.model;
      n : int;
      root : int;
      domains : int;
    }
  | Ack of { version : int; node : int option }
  | Served of { src : int; path : int list; charge : float }
  | Paid of { served : int; unbounded : int; total : float }
  | Session_stats of Wnet_session.stats
  | Server_stats of {
      clients : int;
      requests : int;
      edits : int;
      coalesced : int;
      cache_hits : int;
      cache_misses : int;
      bytes_in : int;
      bytes_out : int;
    }
  | Shard_stats of {
      shard : int;
      conns : int;
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
      (** One per-shard breakdown row of a sharded server's [stats]
          reply; only emitted when the server runs more than one
          shard, so single-shard transcripts stay byte-identical to
          the pre-shard wire format. *)
  | Conn_stats of {
      requests : int;
      bytes_in : int;
      bytes_out : int;
      proto : int;  (** wire codec the connection currently speaks *)
    }
  | Bye
  | Err of string

val float_to_string : float -> string
(** Shortest decimal form that [float_of_string]s back to the identical
    value; ["inf"]/["-inf"]/["nan"] for the non-finite values: the
    bytes of [%.12g] when that round-trips, else [%.17g]. *)

val parse_request : string -> (request option, string) result
(** [Ok None] for blank lines and [#] comments; [Error reason] on a
    malformed or unknown request — the explicit error channel front-ends
    must answer with [err reason] instead of silently skipping. *)

val print_request : request -> string
(** Canonical wire form; [parse_request (print_request r) = Ok (Some r)]
    (floats compared with [Float.equal]). *)

val parse_response : string -> (response, string) result
val print_response : response -> string
(** Canonical wire form; [parse_response (print_response r) = Ok r].
    Rendered by the same code as {!encode_response}, without the memo
    and without the newline. *)

(** {2 Text encoder}

    The transport's reply writer, on the same growable [Bytes] scratch
    ({!Wnet_outbuf}) as {!Wnet_proto_bin.enc}: reply lines are rendered
    straight into it (integers digit by digit, fixed text blitted in,
    floats by {!put_float}), and the transport drains them with
    {!enc_buffer}/{!enc_offset}/{!enc_pending} + {!enc_consume}.  The
    bytes are exactly [print_response r ^ "\n"].

    [src] lines go through a {!memo}, which keeps per source id the
    last line rendered through it, keyed on that line's whole input:
    the path and the charge's [Int64.bits_of_float].  A hit blits the
    stored bytes; a miss renders the line and overwrites the entry in
    place.  Since the line is a function of its key, nothing is
    invalidated, and a memo can serve any encoders and sessions.  It
    holds at most one line per source id rendered through it, each in
    storage the size of that source's longest line; ids at or above
    2{^20} are not memoised.  A hit allocates nothing, and neither does
    a miss whose charge is 0 or in the exact window of {!put_float}.
    The socket server keeps one memo per session. *)

type enc

val enc_create : unit -> enc
val enc_pending : enc -> int
(** Bytes rendered and not yet consumed. *)

val enc_buffer : enc -> Bytes.t
(** The scratch; valid bytes are
    [[enc_offset e, enc_offset e + enc_pending e)].  Invalidated by the
    next [encode_*] call (the bytes may move). *)

val enc_offset : enc -> int
val enc_consume : enc -> int -> unit
(** Mark [n] leading pending bytes as written to the transport; once
    none are left, a scratch over 4 KiB is swapped for a 4 KiB one.
    @raise Invalid_argument if [n] exceeds {!enc_pending}. *)

val enc_reset : enc -> unit
(** Drop all pending bytes (keeps the scratch). *)

type memo
(** Mutable; use it from one domain at a time. *)

val memo_create : unit -> memo

val encode_response : enc -> memo -> response -> unit
(** Append one reply line and its newline. *)

val encode_responses : enc -> memo -> response list -> unit

val encode_pay : enc -> memo -> Wnet_session.pay -> unit
(** A whole pay reply straight from a session's pay view: its [src]
    lines through the memo, then the [ok served=...] line.  The bytes
    of [encode_responses] over the [Served]/[Paid] list {!handle}
    derives from the same view, without building the list. *)

val put_float : enc -> float -> unit
(** Append {!float_to_string}'s bytes.  A finite [x] with
    1 <= |x| < 1e16 is rendered exactly in integer arithmetic, its 17
    significant digits written straight into the scratch, unless its
    last five digits lie within 12 of a multiple of 10{^5} (only there
    can [%.12g] round-trip); that band, and every value outside the
    window but ±0, fall back to {!float_to_string}.  Nothing is
    allocated on the exact path. *)

(** {2 Text line decoder}

    The transport's request reader: feed socket chunks in, take
    complete lines out.  Offsets only — taking a line copies that line
    once and nothing else, so a pipelined burst of k lines costs O(k)
    however it is chunked. *)

val max_line : int
(** 1 MiB, the size of {!Wnet_proto_bin.max_frame}: the longest
    request line accepted, newline excluded. *)

type dec

val dec_create : unit -> dec
val dec_pending : dec -> int
(** Fed bytes not yet returned as a line. *)

val dec_feed : dec -> Bytes.t -> int -> int -> unit
(** [dec_feed d src off len] appends [src[off..off+len)]. *)

val dec_feed_string : dec -> string -> int -> int -> unit

val next_line : dec -> [ `Line of string | `Need_more | `Too_long ]
(** The next complete line, without its ["\n"] and one trailing
    ["\r"].  [`Too_long] once a line — complete or still partial — is
    longer than {!max_line}; it is sticky, and the transport should
    answer [err line too long] and close. *)

val dec_take_rest : dec -> string
(** Every fed byte not yet returned as a line; empties the decoder (a
    codec switch hands these bytes to the frame decoder). *)

val greeting : ?proto:int -> (module Wnet_session.S) -> response
(** The [ready] banner a front-end sends when a session opens.
    [?proto] (default {!version}) lets the socket server acknowledge a
    codec upgrade with a [ready proto=2 ...] banner. *)

val handle : (module Wnet_session.S) -> request -> response list
(** The generic serve step shared by the stdin loop and the socket
    server: apply the request to the session and produce the reply
    lines.  [Pay] yields one [Served] per source of the session's pay
    view plus a closing [Paid] (the socket server renders a served pay
    from the view itself, {!encode_pay}); engine errors ([Failure],
    [Invalid_argument]) surface as [Err]; [Quit] yields [Bye] (closing
    the transport is the caller's job). *)

val handle_line :
  (module Wnet_session.S) ->
  string ->
  [ `Empty | `Reply of response list | `Quit of response list ]
(** {!parse_request} + {!handle}: one input line to its reply lines,
    with [`Quit] telling the caller to close after sending. *)
