(* A shard: one event loop, one domain, a disjoint set of sessions.

   The shared state ties the pieces together: [sessions] is the array
   of access-point sessions the server hosts, [session_shard] the
   router's placement of each onto a shard, [rings] one SPSC mailbox
   per (destination, source) pair over which whole connections are
   handed off (accept -> route -> shard, and shard -> shard when a
   client re-attaches to a session owned elsewhere).  Each shard
   selects on its own connections plus a self-pipe; a producer pushes a
   connection into its ring and writes one wake byte.

   Ownership invariants, which together give determinism:
   - a session is only ever mutated by the shard [session_shard] maps
     it to ({!Wnet_session}'s domain guard turns a violation into a
     loud failure);
   - a connection's fd is only ever read or written by the shard that
     currently owns the connection — the greeting is written by the
     adopting shard, never the listener, so two writers can never
     interleave bytes on one socket;
   - a connection crossing shards carries its whole codec state (line
     decoder, frame decoder, pending output) with it, and the source
     shard stops touching it the moment it is pushed;
   - a session's pay-line memo ([memos]) is only ever used by the
     session's shard: [src] lines come only from that session's pay,
     rendered straight from the session's pay view.

   Each session's edit stream is therefore applied by exactly one
   domain in arrival order, which is the single-threaded serve loop's
   contract — payments stay bit-identical at every shard count.

   Memory per connection is bounded both ways.  A text line longer
   than [Wnet_proto.max_line] is answered with [err line too long] and
   [bye], and a frame longer than [Wnet_proto_bin.max_frame] with
   [err proto: ...] and [bye]; either closes the connection.  While a
   connection's pending output is over [out_cap] its shard neither
   reads it nor answers its buffered requests; both resume once the
   socket drains.  A reply is never split, so a connection holds at
   most [out_cap] plus one reply of output, and once drained 4 KiB of
   scratch per encoder.  A paused connection is not idle: the idle
   timeout counts from the last request answered, and the sweep passes
   over it until its buffered requests are answered. *)

module P = Wnet_proto
module B = Wnet_proto_bin

type conn = {
  fd : Unix.file_descr;
  mutable proto : int;  (* 1 = lines, 2 = binary frames *)
  tdec : P.dec;  (* request lines *)
  tenc : P.enc;  (* text replies not yet written, and the pay-line memo *)
  benc : B.enc;
  bdec : B.dec;
  bview : B.view;
  mutable last_active : float;
  mutable requests : int;
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable closing : bool;  (* no more requests; close once output drains *)
  mutable eof : bool;  (* peer half-closed: answer what is buffered *)
  mutable closed : bool;  (* fd closed *)
  mutable session : int;  (* index into [shared.sessions] *)
  mutable migrate : int option;  (* handoff target shard, if any *)
  mutable greet : bool;  (* owed a ready banner on adoption *)
  mutable fresh : bool;  (* not yet counted as a served client *)
}

(* Single-writer published counters: only the owning shard stores,
   any domain may load (the stats reply snapshots every shard). *)
type pub = {
  p_conns : int Atomic.t;
  p_served : int Atomic.t;
  p_requests : int Atomic.t;
  p_bytes_in : int Atomic.t;
  p_bytes_out : int Atomic.t;
  p_edits : int Atomic.t;
  p_coalesced : int Atomic.t;
  p_inval : int Atomic.t;
  p_hits : int Atomic.t;
  p_misses : int Atomic.t;
  p_repaired : int Atomic.t;
  p_tasks : int Atomic.t;
  p_stolen : int Atomic.t;
}

type shared = {
  nshards : int;
  sessions : (module Wnet_session.S) array;
  session_shard : int array;  (* router placement, fixed at create *)
  memos : Wnet_proto.memo array;
      (* per session, its pay-line memo; only the owning shard renders
         [src] lines, so each memo has a single writer too *)
  idle_timeout : float option;
  rings : conn Spsc.t array array;  (* rings.(dst).(src); src = nshards
                                       is the listener's producer slot *)
  wake_r : Unix.file_descr array;
  wake_w : Unix.file_descr array;
  lstop_r : Unix.file_descr;  (* wakes the listener's select *)
  lstop_w : Unix.file_descr;
  stopping : bool Atomic.t;
  ldone : bool Atomic.t;  (* listener stopped: no more accept handoffs *)
  exited : int Atomic.t;  (* shards that left their loop (drain barrier) *)
  pubs : pub array;
}

type stats = {
  shard : int;
  conns : int;
  served : int;
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

let make_pub () =
  {
    p_conns = Atomic.make 0;
    p_served = Atomic.make 0;
    p_requests = Atomic.make 0;
    p_bytes_in = Atomic.make 0;
    p_bytes_out = Atomic.make 0;
    p_edits = Atomic.make 0;
    p_coalesced = Atomic.make 0;
    p_inval = Atomic.make 0;
    p_hits = Atomic.make 0;
    p_misses = Atomic.make 0;
    p_repaired = Atomic.make 0;
    p_tasks = Atomic.make 0;
    p_stolen = Atomic.make 0;
  }

let nonblock_pipe () =
  let r, w = Unix.pipe () in
  Unix.set_nonblock r;
  Unix.set_nonblock w;
  (r, w)

let make_shared ~nshards ~router ~idle_timeout ~sessions =
  if nshards < 1 then invalid_arg "Shard.make_shared: nshards < 1";
  if Array.length sessions = 0 then
    invalid_arg "Shard.make_shared: no sessions";
  if Router.shards router <> nshards then
    invalid_arg "Shard.make_shared: router sized for a different shard count";
  let session_shard =
    Array.init (Array.length sessions) (fun k -> Router.place router k)
  in
  let pipes = Array.init nshards (fun _ -> nonblock_pipe ()) in
  let lstop_r, lstop_w = nonblock_pipe () in
  {
    nshards;
    sessions;
    session_shard;
    memos = Array.map (fun _ -> P.memo_create ()) sessions;
    idle_timeout;
    rings =
      Array.init nshards (fun _ ->
          Array.init (nshards + 1) (fun _ -> Spsc.create 256));
    wake_r = Array.map fst pipes;
    wake_w = Array.map snd pipes;
    lstop_r;
    lstop_w;
    stopping = Atomic.make false;
    ldone = Atomic.make false;
    exited = Atomic.make 0;
    pubs = Array.init nshards (fun _ -> make_pub ());
  }

let nshards sh = sh.nshards
let stopping sh = Atomic.get sh.stopping
let lstop_fd sh = sh.lstop_r

let wake sh i =
  (* A full pipe is as good as a byte: the select wakes either way. *)
  try ignore (Unix.write_substring sh.wake_w.(i) "x" 0 1)
  with Unix.Unix_error _ -> ()

let stop sh =
  Atomic.set sh.stopping true;
  for i = 0 to sh.nshards - 1 do
    wake sh i
  done;
  try ignore (Unix.write_substring sh.lstop_w "x" 0 1)
  with Unix.Unix_error _ -> ()

let listener_done sh =
  Atomic.set sh.ldone true;
  for i = 0 to sh.nshards - 1 do
    wake sh i
  done

let close_shared sh =
  let close fd = try Unix.close fd with Unix.Unix_error _ -> () in
  Array.iter close sh.wake_r;
  Array.iter close sh.wake_w;
  close sh.lstop_r;
  close sh.lstop_w

let snapshot sh =
  Array.mapi
    (fun i p ->
      {
        shard = i;
        conns = Atomic.get p.p_conns;
        served = Atomic.get p.p_served;
        requests = Atomic.get p.p_requests;
        edits = Atomic.get p.p_edits;
        coalesced = Atomic.get p.p_coalesced;
        inval_passes = Atomic.get p.p_inval;
        cache_hits = Atomic.get p.p_hits;
        cache_misses = Atomic.get p.p_misses;
        repaired = Atomic.get p.p_repaired;
        tasks = Atomic.get p.p_tasks;
        stolen = Atomic.get p.p_stolen;
        bytes_in = Atomic.get p.p_bytes_in;
        bytes_out = Atomic.get p.p_bytes_out;
      })
    sh.pubs

let new_conn fd ~session =
  Unix.set_nonblock fd;
  {
    fd;
    proto = Wnet_proto.version;
    tdec = P.dec_create ();
    tenc = P.enc_create ();
    benc = B.enc_create ();
    bdec = B.dec_create ();
    bview = B.make_view ();
    last_active = Unix.gettimeofday ();
    requests = 0;
    bytes_in = 0;
    bytes_out = 0;
    closing = false;
    eof = false;
    closed = false;
    session;
    migrate = None;
    greet = true;
    fresh = true;
  }

(* Hand a connection to shard [dst]'s mailbox and wake it.  [src] is
   this producer's ring index (a shard id, or [nshards] for the
   listener).  A full ring backs off; if the server is stopping the
   target may never pop again, so the connection is dropped instead of
   deadlocking the producer. *)
let submit sh ~src ~dst c =
  let ring = sh.rings.(dst).(src) in
  let rec go () =
    if Spsc.push ring c then wake sh dst
    else if Atomic.get sh.stopping then (
      try Unix.close c.fd with Unix.Unix_error _ -> ())
    else begin
      wake sh dst;
      Unix.sleepf 0.001;
      go ()
    end
  in
  go ()

(* Listener-side entry: a fresh accept starts on the default session 0,
   owned by whichever shard the router placed it on. *)
let route_new sh fd =
  let c = new_conn fd ~session:0 in
  submit sh ~src:sh.nshards ~dst:sh.session_shard.(0) c

(* ---------------- the per-shard loop ---------------- *)

type t = {
  sh : shared;
  id : int;
  rbuf : Bytes.t;  (* socket read scratch *)
  mutable conns : conn list;
  mutable served : int;
  mutable requests : int;
  mutable bytes_in : int;
  mutable bytes_out : int;
}

(* Pending output over which a connection is paused: the same 1 MiB as
   the line and frame caps. *)
let out_cap = P.max_line

let pending_out (c : conn) = P.enc_pending c.tenc + B.enc_pending c.benc
let paused (c : conn) = pending_out c > out_cap
let wants_input (c : conn) = not (c.closing || c.eof || paused c)

let queue (t : t) (c : conn) rs =
  if c.proto = B.version then (if rs <> [] then B.encode_responses c.benc rs)
  else P.encode_responses c.tenc t.sh.memos.(c.session) rs

let close_conn (t : t) (c : conn) =
  if not c.closed then begin
    c.closed <- true;
    c.closing <- true;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    t.conns <- List.filter (fun c' -> c' != c) t.conns
  end

let write_out (t : t) (c : conn) buf off len =
  let n = Unix.write c.fd buf off len in
  c.bytes_out <- c.bytes_out + n;
  t.bytes_out <- t.bytes_out + n;
  n

(* Write as much pending output as the socket accepts right now, from
   either encoder the same way; text before frames (both are only
   pending together right after a codec upgrade, when the text banner
   precedes the first frame). *)
let flush_some (t : t) (c : conn) =
  if not c.closed then
    try
      let len = P.enc_pending c.tenc in
      if len > 0 then
        P.enc_consume c.tenc
          (write_out t c (P.enc_buffer c.tenc) (P.enc_offset c.tenc) len);
      let len = B.enc_pending c.benc in
      if len > 0 && P.enc_pending c.tenc = 0 then
        B.enc_consume c.benc
          (write_out t c (B.enc_buffer c.benc) (B.enc_offset c.benc) len)
    with
    | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> close_conn t c

(* Refresh this shard's published counters: the connection-level tallies
   plus a roll-up of the sessions this shard owns.  Single writer, so
   plain stores into the atomics. *)
let publish (t : t) =
  let p = t.sh.pubs.(t.id) in
  Atomic.set p.p_conns (List.length t.conns);
  Atomic.set p.p_served t.served;
  Atomic.set p.p_requests t.requests;
  Atomic.set p.p_bytes_in t.bytes_in;
  Atomic.set p.p_bytes_out t.bytes_out;
  let edits = ref 0
  and coalesced = ref 0
  and inval = ref 0
  and hits = ref 0
  and misses = ref 0
  and repaired = ref 0
  and tasks = ref 0
  and stolen = ref 0 in
  Array.iteri
    (fun k sess ->
      if t.sh.session_shard.(k) = t.id then begin
        let module S = (val sess : Wnet_session.S) in
        let st = S.stats () in
        edits := !edits + st.edits;
        coalesced := !coalesced + st.coalesced_edits;
        inval := !inval + st.inval_passes;
        hits := !hits + st.avoid_reused;
        misses := !misses + st.avoid_runs;
        repaired := !repaired + st.repaired_entries;
        tasks := !tasks + st.tasks_executed;
        stolen := !stolen + st.tasks_stolen
      end)
    t.sh.sessions;
  Atomic.set p.p_edits !edits;
  Atomic.set p.p_coalesced !coalesced;
  Atomic.set p.p_inval !inval;
  Atomic.set p.p_hits !hits;
  Atomic.set p.p_misses !misses;
  Atomic.set p.p_repaired !repaired;
  Atomic.set p.p_tasks !tasks;
  Atomic.set p.p_stolen !stolen

(* The [stats] reply tail: server totals, per-shard rows (only when
   there is more than one shard, so single-shard transcripts stay
   byte-identical to the pre-shard wire format), connection counters.
   Totals are sums over ONE snapshot of the per-shard rows, so the
   breakdown always adds up to the totals on the same reply. *)
let wire_stats (t : t) (c : conn) =
  publish t;
  let rows = snapshot t.sh in
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 rows in
  let server =
    Wnet_proto.Server_stats
      {
        clients = sum (fun r -> r.conns);
        requests = sum (fun r -> r.requests);
        edits = sum (fun r -> r.edits);
        coalesced = sum (fun r -> r.coalesced);
        cache_hits = sum (fun r -> r.cache_hits);
        cache_misses = sum (fun r -> r.cache_misses);
        bytes_in = sum (fun r -> r.bytes_in);
        bytes_out = sum (fun r -> r.bytes_out);
      }
  in
  let shard_rows =
    if t.sh.nshards = 1 then []
    else
      Array.to_list
        (Array.map
           (fun r ->
             Wnet_proto.Shard_stats
               {
                 shard = r.shard;
                 conns = r.conns;
                 requests = r.requests;
                 edits = r.edits;
                 coalesced = r.coalesced;
                 inval_passes = r.inval_passes;
                 cache_hits = r.cache_hits;
                 cache_misses = r.cache_misses;
                 repaired = r.repaired;
                 tasks = r.tasks;
                 stolen = r.stolen;
                 bytes_in = r.bytes_in;
                 bytes_out = r.bytes_out;
               })
           rows)
  in
  let conn =
    Wnet_proto.Conn_stats
      {
        requests = c.requests;
        bytes_in = c.bytes_in;
        bytes_out = c.bytes_out;
        proto = c.proto;
      }
  in
  (server :: shard_rows) @ [ conn ]

let count (t : t) (c : conn) =
  c.requests <- c.requests + 1;
  t.requests <- t.requests + 1

(* One parsed request -> queued replies.  The protocol handler does the
   work; the shard owns what is transport state, not session state:
   codec negotiation ([proto N]), session placement ([session N]), the
   stats roll-up, and the close latch on [quit]. *)
let process (t : t) (c : conn) parsed =
  c.last_active <- Unix.gettimeofday ();
  match parsed with
  | Ok None -> ()
  | Error m ->
    count t c;
    queue t c [ Wnet_proto.Err m ]
  | Ok (Some req) -> (
    count t c;
    let sess = t.sh.sessions.(c.session) in
    match req with
    | Wnet_proto.Proto { proto = p } ->
      if p = B.version then begin
        (* Acknowledge in the current codec, then switch both
           directions.  Bytes already buffered behind the request are
           re-fed to the frame decoder. *)
        queue t c [ Wnet_proto.greeting ~proto:B.version sess ];
        if c.proto <> B.version then begin
          c.proto <- B.version;
          let rest = P.dec_take_rest c.tdec in
          B.dec_feed_string c.bdec rest 0 (String.length rest)
        end
      end
      else if p = Wnet_proto.version && c.proto = Wnet_proto.version then
        queue t c [ Wnet_proto.greeting sess ]
      else if p = Wnet_proto.version then
        queue t c [ Wnet_proto.Err "proto: downgrade unsupported" ]
      else
        queue t c
          [ Wnet_proto.Err (Printf.sprintf "proto: unsupported version %d" p) ]
    | Wnet_proto.Attach { session = k } ->
      if k < 0 || k >= Array.length t.sh.sessions then
        queue t c
          [
            Wnet_proto.Err
              (Printf.sprintf "session: no session %d (server hosts %d)" k
                 (Array.length t.sh.sessions));
          ]
      else begin
        c.session <- k;
        let dst = t.sh.session_shard.(k) in
        if dst = t.id then
          (* The attach ack is the target session's ready banner. *)
          queue t c [ Wnet_proto.greeting ~proto:c.proto t.sh.sessions.(k) ]
        else begin
          (* Crossing shards: stop reading here, carry the connection
             (pending output included) to the owning shard, which
             greets on adoption. *)
          c.migrate <- Some dst;
          c.greet <- true
        end
      end
    | Wnet_proto.Pay -> (
      (* Rendered from the session's pay view: no reply list.  A failure
         is answered as [Wnet_proto.handle] answers it. *)
      let module S = (val sess : Wnet_session.S) in
      match S.pay () with
      | p ->
        if c.proto = B.version then B.encode_pay c.benc p
        else P.encode_pay c.tenc t.sh.memos.(c.session) p
      | exception (Failure m | Invalid_argument m) ->
        queue t c [ Wnet_proto.Err m ])
    | Wnet_proto.Stats ->
      queue t c (Wnet_proto.handle sess req @ wire_stats t c)
    | Wnet_proto.Quit ->
      queue t c (Wnet_proto.handle sess req);
      c.closing <- true
    | _ -> queue t c (Wnet_proto.handle sess req))

(* Answer every complete request already buffered, one at a time — the
   request may switch the codec for the bytes behind it, or migrate the
   connection (in which case the remaining buffered bytes travel with
   it and are drained by the new owner).  Stops while the connection is
   paused; once its input is used up after the peer half-closed, the
   connection is done. *)
let rec drain_input (t : t) (c : conn) =
  if (not c.closing) && c.migrate = None && not (paused c) then
    if c.proto = B.version then
      match B.decode_request c.bdec c.bview with
      | `Req req ->
        process t c (Ok (Some req));
        drain_input t c
      | `Need_more -> if c.eof then c.closing <- true
      | `Corrupt m ->
        (* Framing is lost for good: report, dismiss, close. *)
        count t c;
        queue t c [ Wnet_proto.Err ("proto: " ^ m); Wnet_proto.Bye ];
        c.closing <- true
    else
      match P.next_line c.tdec with
      | `Line line ->
        process t c (Wnet_proto.parse_request line);
        drain_input t c
      | `Need_more -> if c.eof then c.closing <- true
      | `Too_long ->
        count t c;
        queue t c [ Wnet_proto.Err "line too long"; Wnet_proto.Bye ];
        c.closing <- true

let handoff (t : t) (c : conn) =
  match c.migrate with
  | None -> ()
  | Some dst ->
    c.migrate <- None;
    t.conns <- List.filter (fun c' -> c' != c) t.conns;
    submit t.sh ~src:t.id ~dst c

(* After any event on a connection: answer what is buffered, then hand
   the connection off, or write what the socket takes and close once
   done.  A write that brings a paused connection back under the cap
   resumes answering right away: no later event may come for requests
   that are already buffered. *)
let rec settle (t : t) (c : conn) =
  drain_input t c;
  if c.migrate <> None then handoff t c
  else begin
    let was_paused = paused c in
    flush_some t c;
    if c.closing && pending_out c = 0 then close_conn t c
    else if was_paused && not (c.closed || paused c) then settle t c
  end

(* Take ownership of a connection from a mailbox (or a fused-mode
   accept).  The adopting shard writes the owed ready banner — the
   single writer rule that keeps greetings from interleaving with
   another shard's replies — and drains any requests that were already
   buffered behind the handoff. *)
let adopt (t : t) (c : conn) =
  c.last_active <- Unix.gettimeofday ();
  if c.fresh then begin
    c.fresh <- false;
    t.served <- t.served + 1
  end;
  t.conns <- c :: t.conns;
  if c.greet then begin
    c.greet <- false;
    queue t c [ Wnet_proto.greeting ~proto:c.proto t.sh.sessions.(c.session) ]
  end;
  if not (Atomic.get t.sh.stopping) then settle t c
(* When stopping, adoption just takes the connection; the drain pass
   answers what is buffered and says bye. *)

let adopt_pending (t : t) =
  Array.iter
    (fun ring ->
      let rec go () =
        match Spsc.pop ring with
        | Some c ->
          adopt t c;
          go ()
        | None -> ()
      in
      go ())
    t.sh.rings.(t.id)

let handle_readable (t : t) (c : conn) =
  match Unix.read c.fd t.rbuf 0 (Bytes.length t.rbuf) with
  | 0 ->
    (* Client half-closed: answer what is already buffered, then go.
       If the buffered input ends in a cross-shard attach, the flag
       travels with the connection and the new owner finishes it. *)
    c.eof <- true;
    settle t c
  | n ->
    c.bytes_in <- c.bytes_in + n;
    t.bytes_in <- t.bytes_in + n;
    if c.proto = B.version then B.dec_feed c.bdec t.rbuf 0 n
    else P.dec_feed c.tdec t.rbuf 0 n;
    settle t c
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
    close_conn t c

(* Fused-mode accept (the single-shard server selects the listening fd
   in its own loop); dst is this shard whenever nshards = 1, but route
   properly regardless. *)
let accept_ready (t : t) listen_fd =
  match Unix.accept listen_fd with
  | fd, _ ->
    let c = new_conn fd ~session:0 in
    let dst = t.sh.session_shard.(0) in
    if dst = t.id then adopt t c else submit t.sh ~src:t.id ~dst c
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

(* A connection is timed while it waits on its peer for a request:
   not once it is closing, and not while paused, when its requests wait
   on the peer reading. *)
let timed (c : conn) = not (c.closing || paused c)

let sweep_idle (t : t) now =
  match t.sh.idle_timeout with
  | None -> ()
  | Some limit ->
    List.iter
      (fun c ->
        if timed c && now -. c.last_active > limit then begin
          queue t c [ Wnet_proto.Err "idle timeout"; Wnet_proto.Bye ];
          c.closing <- true;
          settle t c
        end)
      t.conns

let next_timeout (t : t) now =
  match t.sh.idle_timeout with
  | None -> -1.0
  | Some limit ->
    List.fold_left
      (fun acc c ->
        if not (timed c) then acc
        else
          let left = (c.last_active +. limit) -. now in
          let left = if left < 0.0 then 0.0 else left in
          if acc < 0.0 || left < acc then left else acc)
      (-1.0) t.conns

(* Graceful drain: no new requests are read, but requests already
   received in full are answered as the output cap allows (a
   cross-shard attach mid-drain is cancelled — the client is about to
   get [bye] anyway, and the target shard may already be gone), every
   client then gets [bye], and pending output is flushed (bounded wait)
   before the sockets close. *)
let drain (t : t) =
  let answer c =
    if not c.closing then begin
      drain_input t c;
      if c.migrate <> None || not (c.closing || paused c) then begin
        c.migrate <- None;
        queue t c [ Wnet_proto.Bye ];
        c.closing <- true
      end
    end
  in
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec flush_all () =
    List.iter
      (fun c ->
        answer c;
        flush_some t c;
        if c.closing && pending_out c = 0 then close_conn t c)
      t.conns;
    if t.conns <> [] && Unix.gettimeofday () < deadline then begin
      let ws = List.map (fun c -> c.fd) t.conns in
      (match Unix.select [] ws [] 0.1 with
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      flush_all ()
    end
  in
  flush_all ();
  List.iter (close_conn t) t.conns

(* The shard loop.  [listen_fd] is only passed in fused (single-shard)
   mode, where the one shard doubles as the acceptor and the server
   behaves exactly like the historical single-threaded select loop.
   The loop keeps running while [stopping] is set but the listener has
   not finished: a handoff may still arrive.  Exit is a two-phase
   barrier — every shard leaves its loop, then sweeps its mailboxes one
   last time — so a connection pushed just before shutdown is always
   adopted (and told bye) by someone. *)
let run ?listen_fd sh id =
  let t =
    { sh; id; rbuf = Bytes.create 4096; conns = []; served = 0;
      requests = 0; bytes_in = 0; bytes_out = 0 }
  in
  let wake_fd = sh.wake_r.(id) in
  let lfds = match listen_fd with Some fd -> [ fd ] | None -> [] in
  let rec loop () =
    if not (Atomic.get sh.stopping && Atomic.get sh.ldone) then begin
      let now = Unix.gettimeofday () in
      sweep_idle t now;
      let rs =
        (wake_fd :: lfds)
        @ List.filter_map
            (fun c -> if wants_input c then Some c.fd else None)
            t.conns
      in
      let ws =
        List.filter_map
          (fun c -> if pending_out c <> 0 then Some c.fd else None)
          t.conns
      in
      match Unix.select rs ws [] (next_timeout t now) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | readable, writable, _ ->
        if List.mem wake_fd readable then begin
          let b = Bytes.create 64 in
          try ignore (Unix.read wake_fd b 0 64) with Unix.Unix_error _ -> ()
        end;
        adopt_pending t;
        List.iter
          (fun fd ->
            match List.find_opt (fun c -> c.fd == fd) t.conns with
            | Some c -> settle t c
            | None -> ())
          writable;
        List.iter
          (fun fd ->
            if List.exists (fun l -> l == fd) lfds then accept_ready t fd
            else if fd != wake_fd then
              match List.find_opt (fun c -> c.fd == fd) t.conns with
              | Some c when wants_input c -> handle_readable t c
              | Some _ | None -> ())
          readable;
        publish t;
        loop ()
    end
  in
  loop ();
  (* Drain barrier: once every shard has left its loop, no shard will
     push into a mailbox again, so the final sweep below cannot miss a
     handoff. *)
  Atomic.incr sh.exited;
  while Atomic.get sh.exited < sh.nshards do
    Unix.sleepf 0.001
  done;
  adopt_pending t;
  drain t;
  publish t
