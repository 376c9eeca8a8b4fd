(* perfbench: the end-to-end and per-layer benchmark.

     perfbench --workload W --seed N --seconds T --trace 0|1
     perfbench runner FILE...      (the batch runner it drives itself)

   Run from the root of a built checkout (run.py builds and calls it).
   One single-threaded generator drives the real `unicast listen` server
   over one connection in a closed loop, or the batch runner over a
   pipe, for T seconds.  It reads the serving process's CPU time from
   /proc, because hypervisor steal moves wall time but not CPU time (see
   README.md).  It then replays the same ops in-process through the
   public calls the server makes and checks every op's result, the
   server's counters and, at sampled ops, an independent naive
   reference.  With --trace 1 the replay also records spans and the
   graph and core probes, and the run prints the per-layer metrics. *)

open Perfbench_lib
module W = Workload
module R = Report

exception Harness of string

let harness fmt = Printf.ksprintf (fun s -> raise (Harness s)) fmt

type args = { kind : W.kind; seed : int; seconds : int; trace : bool }

let setups = 15 (* set-ups per run; setup_s is their median *)
let sample_every = 500 (* ops between reference checks and probes *)
let batch_replay_ops = 256 (* ops per traced batch replay *)
let unicast = "_build/default/bin/unicast.exe"
let out_dir = "_perfbench"
let work = Printf.sprintf "%s/run-%d" out_dir (Unix.getpid ())
let socket = work ^ "/s.sock"
let ms ns = float_of_int ns /. 1e6
let per n x = x /. float_of_int (max n 1)

let timed f =
  let t0 = Measure.now_ns () in
  let r = f () in
  (r, Measure.now_ns () - t0)

(* -- the timed phase, common to both kinds of serving process -- *)

type reply = Text of string | Frame of int * int * float | Lost

type timed = {
  attempted : int;
  ops : W.op array;  (** every op sent *)
  replies : reply array;
  errs : int array;  (** [err] replies per op *)
  lat_ns : float array;  (** per completed op *)
  op_cpu_ns : float array;  (** per completed op *)
  cpu_ticks : int;
  steal_ticks : int;
  hwm_kb : int;
  sent : int;  (** bytes the generator wrote during the phase *)
  received : int;
}

let read_or ~default f = try f () with Sys_error _ | Unix.Unix_error _ | Failure _ -> default

let timed_phase a ~pid ~next_op ~serve ~counters =
  let cpu = Procfs.open_cpu pid in
  let stat = Procfs.open_reader (Printf.sprintf "/proc/%d/stat" pid) in
  let host = Procfs.open_reader "/proc/stat" in
  let ops = ref [] and replies = ref [] and errs = ref [] in
  let lat = ref [] and op_cpu = ref [] in
  let ticks0 = Procfs.stat_cpu_ticks (Procfs.read stat) in
  let steal0 = Procfs.host_steal_ticks (Procfs.read host) in
  let sent0, received0 = counters () in
  let prev = ref (Procfs.cpu_ns cpu) in
  let deadline = Measure.now_ns () + (a.seconds * 1_000_000_000) in
  let lost = ref false in
  while (not !lost) && Measure.now_ns () < deadline do
    let (op : W.op) = next_op () in
    ops := op :: !ops;
    let t0 = Measure.now_ns () in
    match serve op with
    | `Reply (r, e) ->
      let t1 = Measure.now_ns () in
      let c = Procfs.cpu_ns cpu in
      replies := r :: !replies;
      errs := e :: !errs;
      lat := float_of_int (t1 - t0) :: !lat;
      op_cpu := float_of_int (c - !prev) :: !op_cpu;
      prev := c
    | `Lost m ->
      Printf.eprintf "perfbench: connection lost: %s\n%!" m;
      replies := Lost :: !replies;
      errs := 0 :: !errs;
      lost := true
  done;
  let cpu_ticks = read_or ~default:0 (fun () -> Procfs.stat_cpu_ticks (Procfs.read stat)) - ticks0 in
  let steal_ticks = Procfs.host_steal_ticks (Procfs.read host) - steal0 in
  let hwm_kb =
    read_or ~default:0 (fun () ->
        Procfs.status_hwm_kb (Procfs.read_file (Printf.sprintf "/proc/%d/status" pid)))
  in
  Procfs.close_cpu cpu;
  Procfs.close_reader stat;
  Procfs.close_reader host;
  let sent1, received1 = counters () in
  let rev l = Array.of_list (List.rev l) in
  {
    attempted = List.length !ops;
    ops = rev !ops;
    replies = rev !replies;
    errs = rev !errs;
    lat_ns = rev !lat;
    op_cpu_ns = rev !op_cpu;
    cpu_ticks;
    steal_ticks;
    hwm_kb;
    sent = sent1 - sent0;
    received = received1 - received0;
  }

(* -- the served workloads -- *)

let is_text a = a.kind = W.Serve_link_text

let frame req =
  let enc = Wnet_proto_bin.enc_create () in
  Wnet_proto_bin.encode_request enc req;
  Bytes.sub_string (Wnet_proto_bin.enc_buffer enc) (Wnet_proto_bin.enc_offset enc)
    (Wnet_proto_bin.enc_pending enc)

let request a req =
  if is_text a then Wnet_proto.print_request req ^ "\n" else frame req

(* Waits for the reply to an op of [k] requests ending in [pay]: the
   closing line or frame, or an [err] that answers the pay itself. *)
let await_pay a c (codec : Replay.codec) ~k =
  if is_text a then
    let line, errs, _ = Conn.text_until c ~prefix:"ok served=" ~err_after:(k - 1) in
    (Text line, errs)
  else
    let seen = ref 0 in
    let stop r =
      incr seen;
      match r with
      | Wnet_proto.Paid _ -> true
      | Wnet_proto.Err _ -> !seen >= k
      | _ -> false
    in
    match Conn.bin_until c codec.dec codec.view ~stop with
    | Wnet_proto.Paid { served; unbounded; total }, errs -> (Frame (served, unbounded, total), errs)
    | r, errs -> (Text (Wnet_proto.print_response r), errs)

type server = { proc : Proc.t; conn : Conn.t; codec : Replay.codec }

(* Set-up: spawn, connect, greet, switch codec, then the first complete
   pay, which fills the SPT and every avoidance cache. *)
let start_server a file =
  let model = if is_text a then "link" else "node" in
  let proc =
    Proc.spawn unicast
      [ "listen"; file; "--model"; model; "--socket"; socket; "--domains"; "1" ]
  in
  let out = Conn.create ~rfd:proc.stdout ~wfd:proc.stdout in
  ignore (Conn.text_until out ~prefix:"listening on");
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let conn = Conn.create ~rfd:fd ~wfd:fd in
  let expect prefix =
    let line, _, _ = Conn.text_until conn ~prefix:"" in
    if not (String.starts_with ~prefix line) then harness "server said %S, want %s" line prefix
  in
  expect "ready proto=1";
  if not (is_text a) then begin
    Conn.write conn "proto 2\n";
    expect "ready proto=2"
  end;
  let codec = Replay.codec () in
  Conn.write conn (request a Wnet_proto.Pay);
  (match await_pay a conn codec ~k:1 with
  | (Text _ | Frame _), 0 -> ()
  | _ -> harness "the first pay failed");
  { proc; conn; codec }

let counters (c : Conn.t) () = (c.sent, c.received)

let serve_op a s (op : W.op) =
  try
    Conn.write s.conn op.bytes;
    `Reply (await_pay a s.conn s.codec ~k:(Array.length op.edits + 1))
  with Conn.Lost m -> `Lost m

(* The server's [stats] reply: the session counters and the server's
   byte totals. *)
let server_stats a s =
  let received = s.conn.received in
  Conn.write s.conn (request a Wnet_proto.Stats);
  let replies =
    if is_text a then
      let _, _, lines = Conn.text_until s.conn ~prefix:"conn " ~keep:true in
      List.filter_map (fun l -> Result.to_option (Wnet_proto.parse_response l)) lines
    else begin
      let got = ref [] in
      let stop r =
        got := r :: !got;
        match r with Wnet_proto.Conn_stats _ | Wnet_proto.Err _ -> true | _ -> false
      in
      ignore (Conn.bin_until s.conn s.codec.dec s.codec.view ~stop);
      List.rev !got
    end
  in
  let session = List.find_map (function Wnet_proto.Session_stats st -> Some st | _ -> None) replies in
  let bytes =
    List.find_map
      (function
        | Wnet_proto.Server_stats { bytes_in; bytes_out; _ } -> Some (bytes_in, bytes_out)
        | _ -> None)
      replies
  in
  match (session, bytes) with
  | Some st, Some (bytes_in, bytes_out) ->
    (* The server read every byte written, the stats request included,
       and wrote every byte read before its reply. *)
    if bytes_in = s.conn.sent && bytes_out = received then Some st
    else begin
      Printf.eprintf "perfbench: server counted %d/%d bytes in/out, generator %d/%d\n%!"
        bytes_in bytes_out s.conn.sent received;
      None
    end
  | _ -> None

(* The elements of the served instance and their current costs, as the
   generator tracks them for the reference and the probes. *)
type costs = { inst : W.served; cur : float array }

let costs_of inst =
  match inst with
  | W.Link (_, links) -> { inst; cur = Array.map (fun (_, _, w) -> w) links }
  | W.Node g -> { inst; cur = Array.copy (Wnet_graph.Graph.costs g) }

let apply_edits c (op : W.op) = Array.iter (fun (e, w) -> c.cur.(e) <- w) op.edits

let current_links links cur = Array.mapi (fun j (u, v, _) -> (u, v, cur.(j))) links

(* Checks the replayed and the served results of an op against the
   naive reference on the current costs. *)
let reference_ok c (r : Replay.reply) served =
  let ref_ =
    match c.inst with
    | W.Link (n, links) -> Reference.link ~n ~root:W.root (current_links links c.cur)
    | W.Node g ->
      Reference.node ~root:W.root ~costs:c.cur (Array.of_list (Wnet_graph.Graph.edges g))
  in
  let paid_ok = function
    | Some (s, u, t) ->
      s = ref_.served && u = ref_.unbounded && Reference.close t ref_.total
    | None -> false
  in
  let charges = Replay.charges r in
  let served_paid =
    match served with
    | Frame (s, u, t) -> Some (s, u, t)
    | Text line -> (
      match Wnet_proto.parse_response line with
      | Ok (Wnet_proto.Paid { served; unbounded; total }) -> Some (served, unbounded, total)
      | _ -> None)
    | Lost -> None
  in
  List.length charges = ref_.served
  && List.for_all (fun (src, ch) -> Reference.close ref_.charges.(src) ch) charges
  && paid_ok (Replay.paid r)
  && paid_ok served_paid

let same_reply r served =
  match (Replay.paid r, served) with
  | Some (served, unbounded, total), Text line ->
    String.equal line (Wnet_proto.print_response (Wnet_proto.Paid { served; unbounded; total }))
  | Some (s, u, t), Frame (s', u', t') -> s = s' && u = u' && Float.equal t t'
  | _ -> false

type gc = { mutable minor : float; mutable major : float; mutable collections : int }

let gc_zero () = { minor = 0.0; major = 0.0; collections = 0 }

let gc_add gc (g0 : Gc.stat) (g1 : Gc.stat) =
  gc.minor <- gc.minor +. (g1.minor_words -. g0.minor_words);
  gc.major <- gc.major +. (g1.major_words -. g0.major_words);
  gc.collections <- gc.collections + (g1.major_collections - g0.major_collections)

(* One in-process replay of the timed phase's ops, on its own session:
   spans off (the checked replay) or on (the traced one). *)
type lane = {
  tr : Trace.t;
  run : string -> Replay.reply;
  stats : unit -> Wnet_session.stats;
  stats0 : Wnet_session.stats;  (** after the warm-up pay *)
  parse_ns : int;
  create_ns : int;
  cold_pay_ns : int;
  mutable op_ns : int;  (** time spent in the ops *)
  mutable reply_bytes : int;
}

let lane a ~file tr =
  let g, parse_ns =
    timed (fun () ->
        if is_text a then `Link (Wnet_graph.Graph_io.parse_digraph_file file)
        else `Node (Wnet_graph.Graph_io.parse_file file))
  in
  let session, create_ns = timed (fun () -> Wnet_session.make ~root:W.root g) in
  let session = if tr.Trace.on then Replay.traced_session tr session else session in
  let module S = (val session) in
  let codec = Replay.codec () in
  let run op =
    if is_text a then Replay.text_op tr session op else Replay.bin_op tr session codec op
  in
  Trace.set_op tr (-1);
  let _, cold_pay_ns = timed (fun () -> run (request a Wnet_proto.Pay)) in
  { tr; run; stats = S.stats; stats0 = S.stats (); parse_ns; create_ns; cold_pay_ns; op_ns = 0;
    reply_bytes = 0 }

let run_op l i (op : W.op) =
  Trace.set_op l.tr i;
  let t0 = Measure.now_ns () in
  let sp = Trace.enter l.tr Trace.Op in
  let r = l.run op.bytes in
  Trace.leave l.tr sp;
  l.op_ns <- l.op_ns + (Measure.now_ns () - t0);
  l.reply_bytes <- l.reply_bytes + r.bytes;
  r

let sampled n i = i mod sample_every = 0 || i = n - 1

(* Replays the timed phase's ops in-process, and checks each op against
   the served reply and, at sampled ops, against the reference ([bad]
   marks failures).  The traced lane, when given, replays the same ops
   in lockstep, taking turns to go first, so that the two lanes see the
   same host conditions and their difference is the tracing overhead;
   the probes run at its sampled ops.  GC deltas are taken around the
   checked lane's ops. *)
let replay a ~file ~inst ~(t : timed) ~bad ~traced =
  let plain = lane a ~file Trace.off in
  let traced = Option.map (fun (tr, probe) -> (lane a ~file tr, probe)) traced in
  let costs = costs_of inst in
  let gc = gc_zero () in
  let samples = ref [] and n = t.attempted in
  (* The reference and the probes run after the loop, so that their
     garbage is not collected inside the ops. *)
  Gc.full_major ();
  for i = 0 to n - 1 do
    let op = t.ops.(i) in
    let other () = Option.iter (fun (l, _) -> ignore (run_op l i op)) traced in
    if i land 1 = 1 then other ();
    let g0 = Gc.quick_stat () in
    let r = run_op plain i op in
    let g1 = Gc.quick_stat () in
    if i land 1 = 0 then other ();
    gc_add gc g0 g1;
    apply_edits costs op;
    if r.errors > 0 || t.errs.(i) > 0 || not (same_reply r t.replies.(i)) then bad.(i) <- true;
    if sampled n i then samples := (i, { costs with cur = Array.copy costs.cur }, r) :: !samples
  done;
  List.iter
    (fun (i, costs, r) ->
      if not (reference_ok costs r t.replies.(i)) then begin
        Printf.eprintf "perfbench: op %d disagrees with the reference\n%!" i;
        bad.(i) <- true
      end;
      match (traced, costs.inst) with
      | Some (_, p), W.Link (n, links) ->
        Probe.link p
          (Wnet_graph.Digraph.create ~n ~links:(Array.to_list (current_links links costs.cur)))
      | Some (_, p), W.Node g -> Probe.node p (Wnet_graph.Graph.with_costs g costs.cur)
      | None, _ -> ())
    !samples;
  (plain, Option.map fst traced, gc)

(* -- metrics -- *)

let cpu_ms_per_op (t : timed) =
  per (Array.length t.lat_ns)
    (float_of_int t.cpu_ticks *. 1000.0 /. float_of_int Procfs.ticks_per_s)

let end_to_end ~setup_ns (t : timed) =
  let p99 = match Measure.p99 t.op_cpu_ns with Ok v -> v | Error m -> harness "%s" m in
  [
    R.metric "op_p50_ms" "ms" (Measure.median t.lat_ns /. 1e6);
    R.metric "cpu_ms_per_op" "ms" (cpu_ms_per_op t);
    R.metric "op_cpu_p99_ms" "ms" (p99 /. 1e6);
    R.metric "setup_s" "s" (Measure.median (Array.map float_of_int setup_ns) /. 1e9);
    R.metric "peak_rss_mb" "MB" (float_of_int t.hwm_kb /. 1024.0);
  ]

let host_cores () = Procfs.host_cores (Procfs.read_file "/proc/stat")

let host (t : timed) =
  [
    R.metric "host.steal_s" "s" (float_of_int t.steal_ticks /. float_of_int Procfs.ticks_per_s);
    R.metric "host.cores" "count" (float_of_int (host_cores ()));
  ]

(* The server's own time is what its CPU time leaves once the layers
   below it are taken out, as the replay with spans off measures them
   ([replay_ns] over the same ops). *)
let server_layer (t : timed) ~replay_ns ~bytes_in ~bytes_out =
  let n = Array.length t.lat_ns in
  let cpu = cpu_ms_per_op t in
  [
    R.metric "server.self_ms_per_op" "ms" (cpu -. per n (ms replay_ns));
    R.metric "server.wait_ms_per_op" "ms" ((Measure.mean t.lat_ns /. 1e6) -. cpu);
    R.metric "server.bytes_in_per_op" "bytes" (per n (float_of_int bytes_in));
    R.metric "server.bytes_out_per_op" "bytes" (per n (float_of_int bytes_out));
  ]

let proto_layer ~n ~decode ~handle_self ~encode ~reply_bytes =
  [
    R.metric "proto.decode_ms_per_op" "ms" (per n (ms decode));
    R.metric "proto.handle_self_ms_per_op" "ms" (per n (ms handle_self));
    R.metric "proto.encode_ms_per_op" "ms" (per n (ms encode));
    R.metric "proto.reply_bytes_per_op" "bytes" (per n (float_of_int reply_bytes));
  ]

(* The work ledger's per-op deltas, and the two ratios of useful
   outcomes to attempts: avoidance runs saved by the cache, and repairs
   that fell back to a recomputation. *)
let session_layer ~n ~apply ~flush ~pay ~create_ns ~cold_pay_ns ~(stats0 : Wnet_session.stats)
    ~(stats1 : Wnet_session.stats) =
  let d = List.map2 (fun (k, a) (_, b) -> (k, b - a)) (Wnet_session.to_fields stats0)
      (Wnet_session.to_fields stats1) in
  let get k = float_of_int (List.assoc k d) in
  let ratio a b = if a +. b = 0.0 then 0.0 else a /. (a +. b) in
  [
    R.metric "session.apply_ms_per_op" "ms" (per n (ms apply));
    R.metric "session.flush_ms_per_op" "ms" (per n (ms flush));
    R.metric "session.pay_ms_per_op" "ms" (per n (ms pay));
    R.metric "session.create_ms" "ms" (ms create_ns);
    R.metric "session.cold_pay_ms" "ms" (ms cold_pay_ns);
  ]
  @ List.map (fun (k, v) -> R.metric ("session." ^ k) "count/op" (per n (float_of_int v))) d
  @ [
      R.metric "session.avoid_hit_ratio" "ratio" (ratio (get "avoid_reused") (get "avoid_runs"));
      R.metric "session.repair_fallback_ratio" "ratio" (ratio (get "fallbacks") (get "repaired"));
    ]

let core_layer ~all_to_root_ms ~overpayment_ms =
  [
    R.metric "core.all_to_root_ms" "ms" all_to_root_ms;
    R.metric "core.overpayment_ms" "ms" overpayment_ms;
  ]

(* Probe means per probed graph. *)
let probed_core (p : Probe.t) =
  core_layer
    ~all_to_root_ms:(per p.graphs (ms p.all_to_root_ns))
    ~overpayment_ms:(per p.graphs (ms p.overpayment_ns))

let graph_layer (p : Probe.t) ~parse_ms =
  let g x = per p.graphs (float_of_int x) in
  [
    R.metric "graph.parse_ms" "ms" parse_ms;
    R.metric "graph.reverse_ms" "ms" (per p.graphs (ms p.reverse_ns));
    R.metric "graph.spt_ms" "ms" (per p.graphs (ms p.spt_ns));
    R.metric "graph.avoid_ms" "ms" (per p.graphs (ms p.avoid_ns));
    R.metric "graph.relays" "count" (g p.relays);
    R.metric "graph.region_nodes" "count" (g p.region_nodes);
    R.metric "graph.avoid_overflows" "count" (g p.overflows);
  ]

let gc_layer ~n (gc : gc) =
  [
    R.metric "gc.minor_words_per_op" "words" (per n gc.minor);
    R.metric "gc.major_words_per_op" "words" (per n gc.major);
    R.metric "gc.major_collections_per_op" "count" (per n (float_of_int gc.collections));
  ]

type outcome = {
  timed : timed;
  failed : int;
  checks_ok : bool;  (** the counters and every check beyond the ops *)
  metrics : R.metric list Lazy.t;  (** computed after the run record is out *)
}

(* -- the served workloads -- *)

let served_run a =
  let n = W.nodes a.kind and file = work ^ "/graph.txt" in
  let inst =
    if is_text a then begin
      W.write_file file (W.digraph_text (W.link_instance ~seed:W.served_instance_seed ~n));
      let g = Wnet_graph.Graph_io.parse_digraph_file file in
      W.Link (Wnet_graph.Digraph.n g, Array.of_list (Wnet_graph.Digraph.links g))
    end
    else begin
      W.write_file file
        (Wnet_graph.Graph_io.to_string (W.node_instance ~seed:W.served_instance_seed ~n));
      W.Node (Wnet_graph.Graph_io.parse_file file)
    end
  in
  let stop s =
    (try Unix.close s.conn.rfd with Unix.Unix_error _ -> ());
    Proc.stop s.proc
  in
  let setup_ns = Array.make setups 0 in
  let server = ref None in
  for i = 0 to setups - 1 do
    Option.iter stop !server;
    let s, ns = timed (fun () -> start_server a file) in
    setup_ns.(i) <- ns;
    server := Some s
  done;
  let s = Option.get !server in
  let t =
    timed_phase a ~pid:s.proc.pid
      ~next_op:(W.served_ops ~seed:a.seed inst)
      ~serve:(serve_op a s) ~counters:(counters s.conn)
  in
  let served_stats = try server_stats a s with Conn.Lost _ -> None in
  stop s;
  let bad = Array.map (fun r -> r = Lost) t.replies in
  let cap =
    Array.fold_left (fun acc (op : W.op) -> acc + (4 * (Array.length op.edits + 2)) + 4) 0 t.ops
  in
  let tr = Trace.create ~on:a.trace ~cap and probe = Probe.create () in
  let plain, traced, gc =
    replay a ~file ~inst ~t ~bad ~traced:(if a.trace then Some (tr, probe) else None)
  in
  (* The traced lane's counters must match too: its session wrapper
     changes no work. *)
  let stats_ok =
    served_stats = Some (plain.stats ())
    && Option.fold ~none:true ~some:(fun (l : lane) -> l.stats () = plain.stats ()) traced
  in
  if not stats_ok then prerr_endline "perfbench: the server's counters differ from the replay's";
  let metrics =
    lazy
    (match traced with
    | None -> end_to_end ~setup_ns t
    | Some traced ->
      Trace.write tr (Printf.sprintf "%s/trace-%s-seed%d.tsv" out_dir (W.name a.kind) a.seed);
      let n = Array.length t.lat_ns in
      let total x = Trace.total tr x in
      server_layer t ~replay_ns:plain.op_ns ~bytes_in:t.sent ~bytes_out:t.received
      @ proto_layer ~n ~decode:(total Trace.Decode) ~handle_self:(Trace.self tr Trace.Handle)
          ~encode:(total Trace.Encode) ~reply_bytes:traced.reply_bytes
      @ session_layer ~n ~apply:(total Trace.Apply) ~flush:(total Trace.Flush)
          ~pay:(total Trace.Pay) ~create_ns:traced.create_ns ~cold_pay_ns:traced.cold_pay_ns
          ~stats0:traced.stats0 ~stats1:(traced.stats ())
      @ probed_core probe
      @ graph_layer probe ~parse_ms:(ms traced.parse_ns)
      @ gc_layer ~n gc @ host t
      @ [ R.metric "trace.overhead_ms_per_op" "ms" (per n (ms (traced.op_ns - plain.op_ns))) ])
  in
  {
    timed = t;
    failed = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 bad;
    checks_ok = stats_ok;
    metrics;
  }

(* -- the batch workload -- *)

let batch_run a =
  let n = W.nodes a.kind and rng = Wnet_prng.Rng.create a.seed in
  let files =
    List.init W.batch_instances (fun j ->
        let f = Printf.sprintf "%s/instance-%02d.txt" work j in
        W.write_file f (W.digraph_text (W.link_instance_rng (Wnet_prng.Rng.split rng) ~n));
        f)
  in
  let gs = Array.of_list (List.map Wnet_graph.Graph_io.parse_digraph_file files) in
  let start () =
    let p = Proc.spawn ~pipe_stdin:true Sys.executable_name ("runner" :: files) in
    let c = Conn.create ~rfd:p.stdout ~wfd:(Option.get p.stdin) in
    ignore (Conn.text_until c ~prefix:"ready");
    (p, c)
  in
  let setup_ns = Array.make setups 0 and runner = ref None in
  for i = 0 to setups - 1 do
    Option.iter (fun (p, _) -> Proc.stop p) !runner;
    let r, ns = timed start in
    setup_ns.(i) <- ns;
    runner := Some r
  done;
  let p, c = Option.get !runner in
  let next = ref 0 in
  let next_op () =
    let k = !next mod W.batch_instances in
    incr next;
    { W.bytes = Printf.sprintf "op %d\n" k; edits = [||] }
  in
  let serve (op : W.op) =
    try
      Conn.write c op.bytes;
      let line, errs, _ = Conn.text_until c ~prefix:"" in
      `Reply (Text line, errs)
    with Conn.Lost m -> `Lost m
  in
  let t = timed_phase a ~pid:p.pid ~next_op ~serve ~counters:(counters c) in
  let received = c.received in
  let runner_ok =
    match
      Conn.write c "stats\n";
      Conn.text_until c ~prefix:""
    with
    | line, _, _ -> line = Printf.sprintf "stats bytes_in=%d bytes_out=%d" c.sent received
    | exception Conn.Lost _ -> false
  in
  Proc.stop p;
  (* The generator's own summary of each instance, and the reference. *)
  let expected = Array.map (Replay.batch_op Trace.off) gs in
  let reference_ok =
    Array.map2
      (fun g (b : Replay.batch) ->
        let r =
          Reference.link ~n:(Wnet_graph.Digraph.n g) ~root:W.root
            (Array.of_list (Wnet_graph.Digraph.links g))
        in
        r.served = b.served && r.unbounded = b.unbounded && Reference.close r.total b.total)
      gs expected
  in
  Array.iteri
    (fun j ok -> if not ok then Printf.eprintf "perfbench: instance %d disagrees with the reference\n%!" j)
    reference_ok;
  let lines = Array.map Replay.batch_line expected in
  let bad =
    Array.mapi
      (fun i r ->
        let j = i mod W.batch_instances in
        r <> Text lines.(j) || t.errs.(i) > 0 || not reference_ok.(j))
      t.replies
  in
  let metrics =
    lazy
    (if not a.trace then end_to_end ~setup_ns t
    else begin
      let k = min t.attempted batch_replay_ops in
      let gc = gc_zero () in
      let tr = Trace.create ~on:true ~cap:(3 * k) in
      let plain_ns = ref 0 and traced_ns = ref 0 in
      let run tr ns i =
        Trace.set_op tr i;
        let t0 = Measure.now_ns () in
        let sp = Trace.enter tr Trace.Op in
        ignore (Replay.batch_op tr gs.(i mod W.batch_instances));
        Trace.leave tr sp;
        ns := !ns + (Measure.now_ns () - t0)
      in
      (* The two replays in lockstep, as for the served workloads. *)
      Gc.full_major ();
      for i = 0 to k - 1 do
        if i land 1 = 1 then run tr traced_ns i;
        let g0 = Gc.quick_stat () in
        run Trace.off plain_ns i;
        let g1 = Gc.quick_stat () in
        if i land 1 = 0 then run tr traced_ns i;
        gc_add gc g0 g1
      done;
      Trace.write tr (Printf.sprintf "%s/trace-%s-seed%d.tsv" out_dir (W.name a.kind) a.seed);
      (* Probes on every instance: the graph kernels, and a session's
         set-up and cold pay, which is what one batch op amounts to. *)
      let probe = Probe.create () in
      let parse_ns = ref 0 and create_ns = ref 0 and cold_pay_ns = ref 0 in
      List.iteri
        (fun j f ->
          let _, ns = timed (fun () -> Wnet_graph.Graph_io.parse_digraph_file f) in
          parse_ns := !parse_ns + ns;
          Probe.link probe gs.(j);
          let s, ns = timed (fun () -> Wnet_session.make ~root:W.root (`Link gs.(j))) in
          create_ns := !create_ns + ns;
          let module S = (val s) in
          let _, ns = timed S.pay in
          cold_pay_ns := !cold_pay_ns + ns)
        files;
      let per_instance x = x / W.batch_instances in
      let total x = Trace.total tr x in
      let zero = Wnet_session.zero_stats in
      server_layer t ~replay_ns:(!plain_ns * Array.length t.lat_ns / k) ~bytes_in:t.sent
        ~bytes_out:t.received
      @ proto_layer ~n:k ~decode:0 ~handle_self:0 ~encode:0 ~reply_bytes:0
      @ session_layer ~n:k ~apply:0 ~flush:0 ~pay:0 ~create_ns:(per_instance !create_ns)
          ~cold_pay_ns:(per_instance !cold_pay_ns) ~stats0:zero ~stats1:zero
      @ core_layer
          ~all_to_root_ms:(per k (ms (total Trace.All_to_root)))
          ~overpayment_ms:(per k (ms (total Trace.Overpayment)))
      @ graph_layer probe ~parse_ms:(ms (per_instance !parse_ns))
      @ gc_layer ~n:k gc @ host t
      @ [ R.metric "trace.overhead_ms_per_op" "ms" (per k (ms (!traced_ns - !plain_ns))) ]
    end)
  in
  {
    timed = t;
    failed = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 bad;
    checks_ok = runner_ok;
    metrics;
  }

(* -- the command line -- *)

let run a =
  let floor_ns = Measure.timer_floor_ns () in
  let o = match a.kind with W.Batch_link_cold -> batch_run a | _ -> served_run a in
  let t = o.timed in
  let completed = Array.length t.lat_ns in
  Printf.printf
    "run: workload=%s seed=%d seconds=%d trace=%d attempted=%d completed=%d failed=%d \
     checks=%b steal_s=%.2f cores=%d cpus=%s ocaml=%s timer_floor_ns=%d\n%!"
    (W.name a.kind) a.seed a.seconds (Bool.to_int a.trace) t.attempted completed o.failed
    o.checks_ok
    (float_of_int t.steal_ticks /. float_of_int Procfs.ticks_per_s)
    (host_cores ())
    (Procfs.status_cpus (Procfs.read_file "/proc/self/status"))
    Sys.ocaml_version floor_ns;
  if completed < Measure.p99_min_samples then
    harness "only %d ops completed; p99 needs %d" completed Measure.p99_min_samples;
  let p50_ns = Measure.median t.lat_ns in
  if float_of_int floor_ns > 0.01 *. p50_ns then
    harness "timer floor %d ns is above 1%% of op_p50 (%.0f ns)" floor_ns p50_ns;
  print_endline
    (R.line ~correct:(o.failed = 0 && o.checks_ok) ~attempted:t.attempted ~failed:o.failed
       (Lazy.force o.metrics))

let cleanup () =
  Proc.stop_all ();
  if Sys.file_exists work then begin
    Array.iter (fun f -> Sys.remove (Filename.concat work f)) (Sys.readdir work);
    Sys.rmdir work
  end

let () =
  match Array.to_list Sys.argv with
  | _ :: "runner" :: files -> Replay.runner files
  | _ ->
    let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
    Arg.parse
      [
        ("--workload", Arg.Set_string workload, "NAME  serve-link-text | serve-node-bin | batch-link-cold");
        ("--seed", Arg.Set_int seed, "N  seed of the op stream");
        ("--seconds", Arg.Set_int seconds, "T  length of the timed phase");
        ("--trace", Arg.Set_int trace, "0|1  0: end-to-end metrics, 1: per-layer metrics");
      ]
      (fun s -> raise (Arg.Bad ("unexpected argument " ^ s)))
      "perfbench --workload NAME --seed N --seconds T --trace 0|1";
    let kind =
      match W.of_name !workload with
      | Some k -> k
      | None ->
        prerr_endline ("perfbench: unknown workload " ^ !workload);
        exit 2
    in
    if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
      prerr_endline "perfbench: want --seconds >= 1 and --trace 0 or 1";
      exit 2
    end;
    (* A watchdog: a run that hangs is stopped, with its children. *)
    Sys.set_signal Sys.sigalrm
      (Sys.Signal_handle
         (fun _ ->
           prerr_endline "perfbench: harness error: run exceeded its time limit";
           cleanup ();
           exit 3));
    ignore (Unix.alarm 170);
    (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Unix.mkdir work 0o755;
    let a = { kind; seed = !seed; seconds = !seconds; trace = !trace = 1 } in
    match run a with
    | () -> cleanup ()
    | exception e ->
      let m = match e with Harness m | Failure m | Conn.Lost m -> m | e -> Printexc.to_string e in
      Printf.eprintf "perfbench: harness error: %s\n%!" m;
      cleanup ();
      exit 3
