(* Wnet_proto round-trip properties: the canonical printer and parser
   are mutual inverses — [parse (print x) = x] with floats compared by
   [Float.equal], so exact down to the bit, including infinities —
   plus the explicit error channel on malformed input, and the generic
   [handle] driver on both session models. *)

module P = Wnet_proto
module W = Wnet_session
open QCheck2

(* ---------------- generators ---------------- *)

let float_gen =
  Gen.oneof
    [
      Gen.float;
      Gen.map2 ( /. ) Gen.float (Gen.float_range 1e-3 1e3);
      Gen.oneofl [ 0.0; -0.0; 1.0; 4.5; 1.0 /. 3.0; 1e-300; 3e300; infinity ];
    ]

let node_gen = Gen.int_range 0 9999
let endpoint_gen = Gen.pair node_gen float_gen
let endpoints_gen = Gen.list_size (Gen.int_range 0 4) endpoint_gen

let request_gen =
  Gen.oneof
    [
      Gen.map2 (fun node cost -> P.Cost_node { node; cost }) node_gen float_gen;
      Gen.map3 (fun u v w -> P.Cost_link { u; v; w }) node_gen node_gen
        float_gen;
      Gen.map2 (fun out inn -> P.Join { out; inn }) endpoints_gen endpoints_gen;
      Gen.map3
        (fun node out inn -> P.Rejoin { node; out; inn })
        node_gen endpoints_gen endpoints_gen;
      Gen.map (fun node -> P.Leave { node }) node_gen;
      Gen.map (fun proto -> P.Proto { proto }) (Gen.int_range 0 255);
      Gen.map (fun session -> P.Attach { session }) (Gen.int_range 0 9999);
      Gen.oneofl [ P.Pay; P.Stats; P.Quit ];
    ]

(* Error messages travel as the rest of the line: any single-spaced
   printable text without leading/trailing blanks round-trips. *)
let message_gen =
  let word =
    Gen.string_size ~gen:(Gen.oneofl [ 'a'; 'z'; 'Q'; '0'; ':'; '_' ])
      (Gen.int_range 1 8)
  in
  Gen.map (String.concat " ") (Gen.list_size (Gen.int_range 0 4) word)

let path_gen = Gen.list_size (Gen.int_range 1 6) node_gen
let count_gen = Gen.int_range 0 100000

let stats_gen =
  Gen.map3
    (fun ((edits, coalesced_edits), (avoid_bounded, avoid_fallback))
         ((inval_passes, spt_runs), (tasks_executed, tasks_stolen))
         ((avoid_runs, avoid_reused), (repaired_entries, fallback_recomputes)) ->
      {
        W.edits;
        coalesced_edits;
        inval_passes;
        spt_runs;
        avoid_runs;
        avoid_reused;
        repaired_entries;
        fallback_recomputes;
        tasks_executed;
        tasks_stolen;
        avoid_bounded;
        avoid_fallback;
      })
    (Gen.pair (Gen.pair count_gen count_gen) (Gen.pair count_gen count_gen))
    (Gen.pair (Gen.pair count_gen count_gen) (Gen.pair count_gen count_gen))
    (Gen.pair (Gen.pair count_gen count_gen) (Gen.pair count_gen count_gen))

let response_gen =
  Gen.oneof
    [
      Gen.map3
        (fun model n (root, domains) ->
          P.Ready { proto = P.version; model; n; root; domains })
        (Gen.oneofl [ `Node; `Link ])
        count_gen
        (Gen.pair node_gen (Gen.int_range 1 64));
      Gen.map2
        (fun version node -> P.Ack { version; node })
        count_gen
        (Gen.opt node_gen);
      Gen.map3
        (fun src path charge -> P.Served { src; path; charge })
        node_gen path_gen float_gen;
      Gen.map3
        (fun served unbounded total -> P.Paid { served; unbounded; total })
        count_gen count_gen float_gen;
      Gen.map (fun st -> P.Session_stats st) stats_gen;
      Gen.map3
        (fun (clients, requests) (edits, coalesced)
             ((cache_hits, cache_misses), (bytes_in, bytes_out)) ->
          P.Server_stats
            {
              clients;
              requests;
              edits;
              coalesced;
              cache_hits;
              cache_misses;
              bytes_in;
              bytes_out;
            })
        (Gen.pair count_gen count_gen)
        (Gen.pair count_gen count_gen)
        (Gen.pair (Gen.pair count_gen count_gen)
           (Gen.pair count_gen count_gen));
      Gen.map3
        (fun (shard, conns) ((requests, edits), (coalesced, inval_passes))
             ( ((cache_hits, cache_misses), (repaired, tasks)),
               (stolen, (bytes_in, bytes_out)) ) ->
          P.Shard_stats
            {
              shard;
              conns;
              requests;
              edits;
              coalesced;
              inval_passes;
              cache_hits;
              cache_misses;
              repaired;
              tasks;
              stolen;
              bytes_in;
              bytes_out;
            })
        (Gen.pair (Gen.int_range 0 9999) count_gen)
        (Gen.pair (Gen.pair count_gen count_gen)
           (Gen.pair count_gen count_gen))
        (Gen.pair
           (Gen.pair (Gen.pair count_gen count_gen)
              (Gen.pair count_gen count_gen))
           (Gen.pair count_gen (Gen.pair count_gen count_gen)));
      Gen.map3
        (fun requests bytes_in (bytes_out, proto) ->
          P.Conn_stats { requests; bytes_in; bytes_out; proto })
        count_gen count_gen
        (Gen.pair count_gen (Gen.int_range 1 255));
      Gen.return P.Bye;
      Gen.map (fun m -> P.Err m) message_gen;
    ]

(* ---------------- structural equality, floats exact ---------------- *)

let endpoints_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (v, w) (v', w') -> v = v' && Float.equal w w')
       a b

let request_equal a b =
  match (a, b) with
  | P.Cost_node { node; cost }, P.Cost_node { node = n'; cost = c' } ->
    node = n' && Float.equal cost c'
  | P.Cost_link { u; v; w }, P.Cost_link { u = u'; v = v'; w = w' } ->
    u = u' && v = v' && Float.equal w w'
  | P.Join { out; inn }, P.Join { out = o'; inn = i' } ->
    endpoints_equal out o' && endpoints_equal inn i'
  | ( P.Rejoin { node; out; inn },
      P.Rejoin { node = n'; out = o'; inn = i' } ) ->
    node = n' && endpoints_equal out o' && endpoints_equal inn i'
  | P.Leave { node }, P.Leave { node = n' } -> node = n'
  | P.Proto { proto }, P.Proto { proto = p' } -> proto = p'
  | P.Attach { session }, P.Attach { session = s' } -> session = s'
  | P.Pay, P.Pay | P.Stats, P.Stats | P.Quit, P.Quit -> true
  | _ -> false

let response_equal a b =
  match (a, b) with
  | ( P.Ready { proto; model; n; root; domains },
      P.Ready { proto = p'; model = m'; n = n'; root = r'; domains = d' } ) ->
    proto = p' && model = m' && n = n' && root = r' && domains = d'
  | P.Ack { version; node }, P.Ack { version = v'; node = n' } ->
    version = v' && node = n'
  | ( P.Served { src; path; charge },
      P.Served { src = s'; path = p'; charge = c' } ) ->
    src = s' && path = p' && Float.equal charge c'
  | ( P.Paid { served; unbounded; total },
      P.Paid { served = s'; unbounded = u'; total = t' } ) ->
    served = s' && unbounded = u' && Float.equal total t'
  | P.Session_stats a, P.Session_stats b -> a = b
  | ( P.Server_stats
        {
          clients;
          requests;
          edits;
          coalesced;
          cache_hits;
          cache_misses;
          bytes_in;
          bytes_out;
        },
      P.Server_stats
        {
          clients = c';
          requests = r';
          edits = e';
          coalesced = co';
          cache_hits = ch';
          cache_misses = cm';
          bytes_in = bi';
          bytes_out = bo';
        } ) ->
    clients = c' && requests = r' && edits = e' && coalesced = co'
    && cache_hits = ch' && cache_misses = cm' && bytes_in = bi'
    && bytes_out = bo'
  | ( P.Shard_stats
        {
          shard;
          conns;
          requests;
          edits;
          coalesced;
          inval_passes;
          cache_hits;
          cache_misses;
          repaired;
          tasks;
          stolen;
          bytes_in;
          bytes_out;
        },
      P.Shard_stats
        {
          shard = s';
          conns = c';
          requests = r';
          edits = e';
          coalesced = co';
          inval_passes = ip';
          cache_hits = ch';
          cache_misses = cm';
          repaired = rp';
          tasks = t';
          stolen = st';
          bytes_in = bi';
          bytes_out = bo';
        } ) ->
    shard = s' && conns = c' && requests = r' && edits = e'
    && coalesced = co' && inval_passes = ip' && cache_hits = ch'
    && cache_misses = cm' && repaired = rp' && tasks = t' && stolen = st'
    && bytes_in = bi' && bytes_out = bo'
  | ( P.Conn_stats { requests; bytes_in; bytes_out; proto },
      P.Conn_stats
        { requests = r'; bytes_in = bi'; bytes_out = bo'; proto = p' } ) ->
    requests = r' && bytes_in = bi' && bytes_out = bo' && proto = p'
  | P.Bye, P.Bye -> true
  | P.Err a, P.Err b -> a = b
  | _ -> false

(* ---------------- properties ---------------- *)

let float_roundtrip_prop f =
  Float.equal (float_of_string (P.float_to_string f)) f

let request_roundtrip_prop r =
  match P.parse_request (P.print_request r) with
  | Ok (Some r') when request_equal r r' -> true
  | Ok (Some r') ->
    Test.fail_reportf "request re-parsed differently: %s vs %s"
      (P.print_request r) (P.print_request r')
  | Ok None -> Test.fail_reportf "request parsed as blank: %s" (P.print_request r)
  | Error m ->
    Test.fail_reportf "request failed to re-parse: %s (%s)" (P.print_request r)
      m

let response_roundtrip_prop r =
  match P.parse_response (P.print_response r) with
  | Ok r' when response_equal r r' -> true
  | Ok r' ->
    Test.fail_reportf "response re-parsed differently: %s vs %s"
      (P.print_response r) (P.print_response r')
  | Error m ->
    Test.fail_reportf "response failed to re-parse: %s (%s)"
      (P.print_response r) m

(* ---------------- units: blanks, errors, handle ---------------- *)

let test_blank_and_comment () =
  Alcotest.(check bool) "blank is silent" true (P.parse_request "" = Ok None);
  Alcotest.(check bool) "spaces are silent" true
    (P.parse_request "   " = Ok None);
  Alcotest.(check bool) "comment is silent" true
    (P.parse_request "# cost 1 2" = Ok None)

let expect_error what line =
  match P.parse_request line with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s should be rejected: %S" what line

let test_malformed () =
  expect_error "bare cost" "cost";
  expect_error "cost arity" "cost 1 2 3 4";
  expect_error "bad number" "cost 1 two";
  expect_error "join without separator" "join 1:2.0";
  expect_error "bad endpoint" "join 1 -- 2:3";
  expect_error "unknown verb" "payments";
  expect_error "bare rejoin" "rejoin"

let test_parse_examples () =
  Alcotest.(check bool) "node cost" true
    (match P.parse_request "cost 3 4.5" with
    | Ok (Some (P.Cost_node { node = 3; cost })) -> Float.equal cost 4.5
    | _ -> false);
  Alcotest.(check bool) "link removal via inf" true
    (match P.parse_request "cost 1 2 inf" with
    | Ok (Some (P.Cost_link { u = 1; v = 2; w })) -> w = infinity
    | _ -> false);
  Alcotest.(check bool) "exit aliases quit" true
    (P.parse_request "exit" = Ok (Some P.Quit))

(* The counter keys of the session stats line, in wire order — the
   table the consolidated parser is driven by. *)
let stats_keys =
  [|
    "edits"; "coalesced"; "inval_passes"; "spt_runs"; "avoid_runs";
    "avoid_reused"; "repaired"; "fallbacks"; "tasks"; "stolen";
    "avoid_bounded"; "avoid_fallback";
  |]

(* The stats line parses with all twelve counters, and every shorter
   even prefix of it — a line cut between two counters — is an
   [Error]. *)
let stats_arity_gen = Gen.array_size (Gen.return 12) count_gen

let stats_arity_prop counts =
  let line arity =
    "ok "
    ^ String.concat " "
        (List.init arity (fun i ->
             Printf.sprintf "%s=%d" stats_keys.(i) counts.(i)))
  in
  (match P.parse_response (line 12) with
  | Ok (P.Session_stats st) ->
    st
    = {
        W.edits = counts.(0);
        coalesced_edits = counts.(1);
        inval_passes = counts.(2);
        spt_runs = counts.(3);
        avoid_runs = counts.(4);
        avoid_reused = counts.(5);
        repaired_entries = counts.(6);
        fallback_recomputes = counts.(7);
        tasks_executed = counts.(8);
        tasks_stolen = counts.(9);
        avoid_bounded = counts.(10);
        avoid_fallback = counts.(11);
      }
    || Test.fail_reportf "stats line parsed with wrong counters: %s" (line 12)
  | Ok _ -> Test.fail_reportf "stats line parsed as something else: %s" (line 12)
  | Error m -> Test.fail_reportf "stats line rejected: %s (%s)" (line 12) m)
  && List.for_all
       (fun arity ->
         match P.parse_response (line arity) with
         | Error _ -> true
         | Ok _ -> Test.fail_reportf "%d-token prefix parsed: %s" arity (line arity))
       [ 2; 4; 6; 8; 10 ]

let test_stats_line_exact () =
  (* Pin the wire form of the 12-counter stats line and of the conn
     line: both parse only as the server prints them. *)
  (match
     P.parse_response
       "ok edits=1 coalesced=2 inval_passes=3 spt_runs=4 avoid_runs=5 \
        avoid_reused=6 repaired=7 fallbacks=8 tasks=9 stolen=2 \
        avoid_bounded=11 avoid_fallback=12"
   with
  | Ok (P.Session_stats st) ->
    Alcotest.(check bool) "12-token stats line parses exactly" true
      (st
      = {
          W.edits = 1;
          coalesced_edits = 2;
          inval_passes = 3;
          spt_runs = 4;
          avoid_runs = 5;
          avoid_reused = 6;
          repaired_entries = 7;
          fallback_recomputes = 8;
          tasks_executed = 9;
          tasks_stolen = 2;
          avoid_bounded = 11;
          avoid_fallback = 12;
        })
  | _ -> Alcotest.fail "full stats line must parse");
  (* the 10-token form an older layout printed is no stats line, nor
     is an odd arity *)
  (match
     P.parse_response
       "ok edits=1 coalesced=2 inval_passes=3 spt_runs=4 avoid_runs=5 \
        avoid_reused=6 repaired=7 fallbacks=8 tasks=9 stolen=2"
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "10-token ok line must be rejected");
  (match
     P.parse_response
       "ok edits=1 coalesced=2 inval_passes=3 spt_runs=4 avoid_runs=5 \
        avoid_reused=6 repaired=7"
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "7-token ok line must be rejected");
  (* the conn line carries its proto token *)
  (match P.parse_response "conn requests=3 bytes_in=40 bytes_out=152" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "conn line without proto must be rejected");
  match P.parse_response "conn requests=3 bytes_in=40 bytes_out=152 proto=2" with
  | Ok (P.Conn_stats { proto = 2; _ }) -> ()
  | _ -> Alcotest.fail "4-token conn line must carry its proto"

(* The sharded-server wire additions: the [session N] attach request,
   the per-shard stats row, and the stats-key table staying in lock
   step with Wnet_session's versioned record layout (the printer is
   table-driven off the record). *)
let test_shard_wire () =
  Alcotest.(check (array string)) "stats keys = session record layout"
    stats_keys W.stats_field_names;
  Alcotest.(check bool) "session N parses as an attach" true
    (P.parse_request "session 3" = Ok (Some (P.Attach { session = 3 })));
  Alcotest.(check string) "attach prints as session N" "session 3"
    (P.print_request (P.Attach { session = 3 }));
  let row =
    P.Shard_stats
      {
        shard = 1;
        conns = 2;
        requests = 3;
        edits = 4;
        coalesced = 5;
        inval_passes = 6;
        cache_hits = 7;
        cache_misses = 8;
        repaired = 9;
        tasks = 10;
        stolen = 11;
        bytes_in = 12;
        bytes_out = 13;
      }
  in
  Alcotest.(check string) "shard row wire form"
    "shard id=1 conns=2 requests=3 edits=4 coalesced=5 inval_passes=6 \
     cache_hits=7 cache_misses=8 repaired=9 tasks=10 stolen=11 bytes_in=12 \
     bytes_out=13"
    (P.print_response row);
  (match P.parse_response (P.print_response row) with
  | Ok r ->
    Alcotest.(check bool) "shard row reparses" true (response_equal row r)
  | Error m -> Alcotest.failf "shard row rejected: %s" m);
  Alcotest.(check string) "session stats print through the record"
    ("ok "
    ^ String.concat " "
        (List.map
           (fun (k, v) -> Printf.sprintf "%s=%d" k v)
           (W.to_fields W.zero_stats)))
    (P.print_response (P.Session_stats W.zero_stats))

(* ---------------- text encoder = the Printf reference ---------------- *)

(* Floats the %.12g / %.17g split and the C printer's special cases
   care about: both infinities, both NaN signs, both zeros, subnormals,
   the extremes of the exponent range. *)
let wide_float_gen =
  Gen.oneof
    [
      float_gen;
      Gen.oneofl
        [
          infinity; neg_infinity; nan; Float.neg nan; 0.0; -0.0;
          4.9e-324; -4.9e-324; 2.2250738585072009e-308; Float.min_float /. 3.0;
          1e300; -1e300; 1e-300; -1e-300; Float.max_float; -.Float.max_float;
          4.0e4 /. 3.0; 0.1; 100.0;
        ];
    ]

let wide_int_gen =
  Gen.oneof
    [
      Gen.int_range (-1000) 1000;
      Gen.int;
      Gen.oneofl [ 0; -1; min_int; max_int; 9; 10; -10; 99; 100 ];
    ]

let hops_gen = Gen.oneof [ Gen.oneofl [ 0; 1; 40 ]; Gen.int_range 0 40 ]
let wide_path_gen = Gen.bind hops_gen (fun k -> Gen.list_repeat k wide_int_gen)

let wide_stats_gen =
  Gen.map
    (fun c ->
      {
        W.edits = c.(0);
        coalesced_edits = c.(1);
        inval_passes = c.(2);
        spt_runs = c.(3);
        avoid_runs = c.(4);
        avoid_reused = c.(5);
        repaired_entries = c.(6);
        fallback_recomputes = c.(7);
        tasks_executed = c.(8);
        tasks_stolen = c.(9);
        avoid_bounded = c.(10);
        avoid_fallback = c.(11);
      })
    (Gen.array_repeat 12 wide_int_gen)

(* Every response constructor, with any int where the type allows one
   and any string as an error message. *)
let render_gen =
  let i = wide_int_gen in
  let ints k = Gen.array_repeat k i in
  Gen.oneof
    [
      Gen.map2
        (fun model c ->
          P.Ready
            { proto = c.(0); model; n = c.(1); root = c.(2); domains = c.(3) })
        (Gen.oneofl [ `Node; `Link ])
        (ints 4);
      Gen.map2 (fun version node -> P.Ack { version; node }) i (Gen.opt i);
      Gen.map3
        (fun src path charge -> P.Served { src; path; charge })
        i wide_path_gen wide_float_gen;
      Gen.map3
        (fun served unbounded total -> P.Paid { served; unbounded; total })
        i i wide_float_gen;
      Gen.map (fun st -> P.Session_stats st) wide_stats_gen;
      Gen.map
        (fun c ->
          P.Server_stats
            {
              clients = c.(0);
              requests = c.(1);
              edits = c.(2);
              coalesced = c.(3);
              cache_hits = c.(4);
              cache_misses = c.(5);
              bytes_in = c.(6);
              bytes_out = c.(7);
            })
        (ints 8);
      Gen.map
        (fun c ->
          P.Shard_stats
            {
              shard = c.(0);
              conns = c.(1);
              requests = c.(2);
              edits = c.(3);
              coalesced = c.(4);
              inval_passes = c.(5);
              cache_hits = c.(6);
              cache_misses = c.(7);
              repaired = c.(8);
              tasks = c.(9);
              stolen = c.(10);
              bytes_in = c.(11);
              bytes_out = c.(12);
            })
        (ints 13);
      Gen.map
        (fun c ->
          P.Conn_stats
            {
              requests = c.(0);
              bytes_in = c.(1);
              bytes_out = c.(2);
              proto = c.(3);
            })
        (ints 4);
      Gen.return P.Bye;
      Gen.map (fun m -> P.Err m) (Gen.oneof [ Gen.return ""; Gen.string ]);
    ]

let encoded rs =
  let e = P.enc_create () in
  P.encode_responses e (P.memo_create ()) rs;
  Bytes.sub_string (P.enc_buffer e) (P.enc_offset e) (P.enc_pending e)

let reference rs =
  String.concat "" (List.map (fun r -> Proto_ref.print_response r ^ "\n") rs)

let render_prop r =
  let want = Proto_ref.print_response r in
  String.equal (encoded [ r ]) (want ^ "\n")
  && String.equal (P.print_response r) want
  || Test.fail_reportf "rendered %S, reference %S" (encoded [ r ]) want

(* ---------------- the pay-line memo ---------------- *)

(* One step of a pay-reply sequence on one encoder.  The state is the
   current reply; each step edits it and the new reply is encoded. *)
type memo_step =
  | Again  (** the same reply once more: every line a hit *)
  | Flip_zero of int  (** that source's charge 0.0 <-> -0.0 *)
  | Repath of int * int list  (** a new path at an equal charge *)
  | Recharge of int * float
  | Grow of int  (** a new source id, past the memo's length *)
  | Foreign of (int * int list * float) list
      (** a reply from another session in between; the state is kept *)

let memo_charge_gen =
  Gen.oneofl
    [ 0.0; -0.0; 1.5; 1.0 /. 3.0; 4.0e4 /. 3.0; infinity; nan; 4.9e-324; 1e300 ]

let memo_path_gen = Gen.list_size (Gen.int_range 1 6) (Gen.int_range 0 9)

let memo_line_gen src =
  Gen.map2 (fun p c -> (src, p, c)) memo_path_gen memo_charge_gen

let memo_step_gen =
  let slot = Gen.int_range 0 40 in
  Gen.oneof
    [
      Gen.return Again;
      Gen.map (fun i -> Flip_zero i) slot;
      Gen.map2 (fun i p -> Repath (i, p)) slot memo_path_gen;
      Gen.map2 (fun i c -> Recharge (i, c)) slot memo_charge_gen;
      Gen.map (fun s -> Grow s) (Gen.int_range 10 5000);
      Gen.map
        (fun ls -> Foreign ls)
        (Gen.bind (Gen.int_range 1 8) (fun k ->
             Gen.flatten_l (List.init k memo_line_gen)));
    ]

let memo_gen =
  Gen.pair
    (Gen.bind (Gen.int_range 1 8) (fun k ->
         Gen.flatten_l (List.init k memo_line_gen)))
    (Gen.list_size (Gen.int_range 1 25) memo_step_gen)

let served_of (src, path, charge) = P.Served { src; path; charge }

(* One memo shared by two encoders taking turns, as a session's memo is
   shared by its clients. *)
let memo_prop (first, steps) =
  let memo = P.memo_create () in
  let encs = [| P.enc_create (); P.enc_create () |] and turn = ref 0 in
  let check reply =
    let e = encs.(!turn land 1) in
    incr turn;
    let rs = List.map served_of reply in
    P.encode_responses e memo rs;
    let got =
      Bytes.sub_string (P.enc_buffer e) (P.enc_offset e) (P.enc_pending e)
    in
    P.enc_consume e (P.enc_pending e);
    String.equal got (reference rs)
    || Test.fail_reportf "memo output %S, fresh %S" got (reference rs)
  in
  let edit k f reply =
    let n = List.length reply in
    List.mapi (fun i l -> if i = k mod n then f l else l) reply
  in
  let step reply = function
    | Again -> reply
    | Flip_zero k ->
      edit k
        (fun (s, p, c) ->
          (s, p, if Int64.bits_of_float c = 0L then -0.0 else 0.0))
        reply
    | Repath (k, p) -> edit k (fun (s, _, c) -> (s, p, c)) reply
    | Recharge (k, c) -> edit k (fun (s, p, _) -> (s, p, c)) reply
    | Grow s -> reply @ [ (s, [ s; 0 ], 0.5) ]
    | Foreign _ -> reply
  in
  check first
  && snd
       (List.fold_left
          (fun (reply, ok) st ->
            let reply' = step reply st in
            let ok =
              ok
              && (match st with Foreign ls -> check ls | _ -> true)
              && check reply'
            in
            (reply', ok))
          (first, true) steps)

(* ---------------- the float writer ---------------- *)

(* Inputs for the OCaml float writer, each held byte for byte to the
   Printf definition in [Proto_ref]: random bit patterns, subnormals,
   the signed zeros, infinities and NaNs, extremes, powers of ten and
   two, integers up to 2^53, short decimals k/100 (the costs the tools
   emit), decimals of at most 12 significant digits (where %.12g
   round-trips, so the writer must defer to libc), ties at the 17th
   digit, and both edges of the exact window [1, 1e16); every finite
   kind also one ulp either side, and with either sign. *)
let writer_float_gen =
  let ulp x = function 0 -> x | 1 -> Float.succ x | _ -> Float.pred x in
  let near g = Gen.map2 ulp g (Gen.int_range 0 2) in
  let signed g = Gen.map2 (fun x neg -> if neg then -.x else x) g Gen.bool in
  Gen.frequency
    [
      (3, Gen.map Int64.float_of_bits Gen.int64);
      ( 1,
        Gen.map
          (fun m -> Int64.float_of_bits (Int64.of_int m))
          (Gen.int_range 1 ((1 lsl 52) - 1)) );
      ( 1,
        Gen.oneofl
          [
            0.0; infinity; nan; Int64.float_of_bits 0x7ff0000000000001L;
            Int64.float_of_bits 0x7ff8000000000123L; 1e300; 1e-300; 5e-324;
            Float.max_float; Float.min_float;
          ] );
      ( 2,
        near
          (Gen.map
             (fun k -> float_of_string ("1e" ^ string_of_int k))
             (Gen.int_range (-30) 30)) );
      (2, near (Gen.map (fun k -> Float.ldexp 1.0 k) (Gen.int_range (-1074) 1023)));
      (2, near (Gen.map float_of_int (Gen.int_range 0 (1 lsl 53))));
      ( 4,
        near
          (Gen.map (fun k -> float_of_int k /. 100.0) (Gen.int_range 0 100_000_000))
      );
      ( 4,
        near
          (Gen.map2
             (fun d j -> float_of_string (Printf.sprintf "%de-%d" d j))
             (Gen.int_range 100_000_000_000 999_999_999_999)
             (Gen.int_range 0 14)) );
      ( 2,
        Gen.map3
          (fun i j k -> float_of_int i +. Float.ldexp (float_of_int ((2 * j) + 1)) (-k))
          (Gen.int_range 1 1_000_000) (Gen.int_range 0 1000) (Gen.int_range 10 45)
      );
      ( 2,
        near
          (Gen.oneofl
             [ 1.0; 1e16; 9999999999999998.0; 1e15; 9.5; 10.0; 99.99; 1e12 ]) );
      (3, near (Gen.map exp (Gen.float_range 0.0 36.85)));
    ]
  |> signed

let writer_prop x =
  let want = Proto_ref.float_to_string x in
  let e = P.enc_create () in
  P.put_float e x;
  let put = Bytes.sub_string (P.enc_buffer e) (P.enc_offset e) (P.enc_pending e) in
  let lines =
    [ P.Served { src = 7; path = [ 7; 3; 0 ]; charge = x };
      P.Paid { served = 1; unbounded = 0; total = x } ]
  in
  let got_lines = List.map P.print_response lines
  and want_lines = List.map Proto_ref.print_response lines in
  (String.equal (P.float_to_string x) want && String.equal put want
  && got_lines = want_lines)
  || Test.fail_reportf "%h: float_to_string %S, put_float %S, Printf %S" x
       (P.float_to_string x) put want

(* ---------------- draining at random split points ---------------- *)

(* Batches of up to 40 replies against chunks of up to 4 KiB: the
   scratch (512 bytes at first) both grows and moves its pending bytes
   to the front. *)
let split_gen =
  Gen.list_size (Gen.int_range 1 6)
    (Gen.pair
       (Gen.list_size (Gen.int_range 0 40) render_gen)
       (Gen.list_size (Gen.int_range 0 4) (Gen.int_range 0 4096)))

(* Each batch is encoded, then partly consumed in the given chunk
   sizes before the next batch lands behind it; the consumed bytes,
   in order, must be the reference text. *)
let split_prop batches =
  let e = P.enc_create () and memo = P.memo_create () in
  let out = Buffer.create 256 in
  let take k =
    let k = min k (P.enc_pending e) in
    Buffer.add_subbytes out (P.enc_buffer e) (P.enc_offset e) k;
    P.enc_consume e k
  in
  List.iter
    (fun (rs, chunks) ->
      P.encode_responses e memo rs;
      List.iter take chunks)
    batches;
  take (P.enc_pending e);
  let want = reference (List.concat_map fst batches) in
  String.equal (Buffer.contents out) want
  || Test.fail_reportf "drained %S, want %S" (Buffer.contents out) want

(* A scratch that grew past 4 KiB goes back to 4 KiB once drained, not
   before, and renders the same bytes after. *)
let test_scratch_shrinks () =
  let e = P.enc_create () and memo = P.memo_create () in
  let rs =
    List.init 2000 (fun src ->
        P.Served
          { src; path = [ src; 3; 2; 1; 0 ]; charge = 1.0 /. float_of_int (src + 3) })
  in
  let drained () =
    let n = P.enc_pending e in
    let got = Bytes.sub_string (P.enc_buffer e) (P.enc_offset e) n in
    P.enc_consume e (n / 2);
    Alcotest.(check bool) "kept while bytes are pending" true
      (Bytes.length (P.enc_buffer e) >= n);
    P.enc_consume e (n - (n / 2));
    Alcotest.(check int) "drained: back to 4 KiB" 4096
      (Bytes.length (P.enc_buffer e));
    got
  in
  P.encode_responses e memo rs;
  Alcotest.(check bool) "the reply outgrew 4 KiB" true
    (P.enc_pending e > 4096);
  Alcotest.(check string) "fresh render = reference" (reference rs) (drained ());
  P.encode_responses e memo rs;
  Alcotest.(check string) "memo render after the shrink = reference"
    (reference rs) (drained ())

(* ---------------- the line decoder ---------------- *)

let line_text_gen =
  Gen.map (String.concat "")
    (Gen.list_size (Gen.int_range 0 30)
       (Gen.oneof
          [
            Gen.oneofl [ "\n"; "\r\n"; "\r"; "pay"; "cost 1 2 3.5"; " " ];
            Gen.string_size ~gen:Gen.printable (Gen.int_range 0 12);
          ]))

let lines_prop (text, cuts) =
  let d = P.dec_create () in
  let n = String.length text in
  let cuts = List.sort_uniq compare (List.map (fun c -> c mod (n + 1)) cuts) in
  let got = ref [] in
  let rec take () =
    match P.next_line d with
    | `Line l ->
      got := l :: !got;
      take ()
    | `Need_more -> ()
    | `Too_long -> Test.fail_report "short line reported too long"
  in
  ignore
    (List.fold_left
       (fun pos c ->
         P.dec_feed_string d text pos (c - pos);
         take ();
         c)
       0 (cuts @ [ n ]));
  (* the reference split: every '\n'-terminated piece, one '\r' off *)
  let pieces = String.split_on_char '\n' text in
  let complete = List.filteri (fun i _ -> i < List.length pieces - 1) pieces in
  let strip l =
    let k = String.length l in
    if k > 0 && l.[k - 1] = '\r' then String.sub l 0 (k - 1) else l
  in
  let rest = List.nth pieces (List.length pieces - 1) in
  List.rev !got = List.map strip complete
  && String.equal (P.dec_take_rest d) rest
  || Test.fail_report "decoded lines differ from the split"

let test_line_cap () =
  let cap = P.max_line in
  Alcotest.(check int) "the cap is the binary frame cap" Wnet_proto_bin.max_frame
    cap;
  let line_of k = String.make k 'a' in
  (* a line of exactly the cap, then its newline *)
  let d = P.dec_create () in
  P.dec_feed_string d (line_of cap ^ "\n") 0 (cap + 1);
  (match P.next_line d with
  | `Line l -> Alcotest.(check int) "a line of max_line bytes passes" cap
                 (String.length l)
  | _ -> Alcotest.fail "a line of max_line bytes must pass");
  (* a partial line over the cap, fed in chunks *)
  let d = P.dec_create () in
  let chunk = line_of 4096 in
  let rec feed k =
    match P.next_line d with
    | `Too_long -> k
    | `Line _ -> Alcotest.fail "no newline was fed"
    | `Need_more ->
      P.dec_feed_string d chunk 0 4096;
      feed (k + 4096)
  in
  let fed = feed 0 in
  Alcotest.(check bool) "partial line refused just past the cap" true
    (fed > cap && fed <= cap + 4096);
  Alcotest.(check bool) "too long is sticky" true
    (P.next_line d = `Too_long);
  (* a complete line over the cap *)
  let d = P.dec_create () in
  P.dec_feed_string d "pay\n" 0 4;
  P.dec_feed_string d (line_of (cap + 1) ^ "\npay\n") 0 (cap + 6);
  Alcotest.(check bool) "lines before it still come out" true
    (P.next_line d = `Line "pay");
  Alcotest.(check bool) "a complete line over the cap is refused" true
    (P.next_line d = `Too_long)

let fig_digraph () =
  Wnet_graph.Digraph.create ~n:3 ~links:[ (2, 1, 1.0); (1, 0, 1.0) ]

let test_handle_drives_session () =
  let session = W.make ~root:0 (`Link (fig_digraph ())) in
  (match P.greeting session with
  | P.Ready { proto; model = `Link; n = 3; root = 0; domains = 1 } ->
    Alcotest.(check int) "greeting carries the protocol version" P.version
      proto
  | r -> Alcotest.failf "unexpected greeting %s" (P.print_response r));
  (match P.handle session (P.Cost_link { u = 2; v = 0; w = 10.0 }) with
  | [ P.Ack { version = 1; node = None } ] -> ()
  | rs ->
    Alcotest.failf "unexpected ack %s"
      (String.concat "; " (List.map P.print_response rs)));
  let edited =
    Wnet_graph.Digraph.create ~n:3
      ~links:[ (2, 1, 1.0); (1, 0, 1.0); (2, 0, 10.0) ]
  in
  let oracle = Payment_ref.link edited ~root:0 in
  let expected src =
    match oracle.Payment_ref.results.(src) with
    | Some r -> r.Payment_ref.charge
    | None -> Alcotest.failf "oracle must serve source %d" src
  in
  (match P.handle session P.Pay with
  | [
   P.Served { src = 1; path = [ 1; 0 ]; charge = c1 };
   P.Served { src = 2; path = [ 2; 1; 0 ]; charge = c2 };
   P.Paid { served = 2; _ };
  ] ->
    Alcotest.(check bool) "src 1 charge matches the from-scratch oracle" true
      (Float.equal c1 (expected 1));
    Alcotest.(check bool) "src 2 charge matches the from-scratch oracle" true
      (Float.equal c2 (expected 2))
  | rs ->
    Alcotest.failf "unexpected pay reply %s"
      (String.concat "; " (List.map P.print_response rs)));
  (* model mismatch surfaces on the error channel, session survives *)
  (match P.handle session (P.Cost_node { node = 1; cost = 2.0 }) with
  | [ P.Err _ ] -> ()
  | _ -> Alcotest.fail "node delta on a link session must err");
  match P.handle_line session "quit" with
  | `Quit [ P.Bye ] -> ()
  | _ -> Alcotest.fail "quit must reply bye and close"

(* ---------------- malformed edits: err, never an exception ---------------- *)

module Rng = Wnet_prng.Rng

(* Ids below 0, at and past [n] and at the int extremes, or a valid one. *)
let sweep_id rng n =
  match Rng.int rng 9 with
  | 0 -> -1
  | 1 -> min_int
  | 2 -> n
  | 3 -> n + 1 + Rng.int rng 5
  | 4 -> max_int
  | _ -> Rng.int rng n

(* NaN, negative and infinite costs, negative zero, or a valid one. *)
let sweep_cost rng =
  match Rng.int rng 9 with
  | 0 -> nan
  | 1 -> -1.0
  | 2 -> -.Rng.float_range rng 0.01 5.0
  | 3 -> infinity
  | 4 -> neg_infinity
  | 5 -> -0.0
  | _ -> Rng.float_range rng 0.5 10.0

let sweep_links rng n =
  List.init (Rng.int rng 3) (fun _ -> (sweep_id rng n, sweep_cost rng))

(* One request, malformed or not, for a session of [n] nodes rooted at
   0: cost edits of either model (self-loops included), leaves (the
   root's too), joins and rejoins with bad endpoints, and pays. *)
let sweep_request rng model n =
  let link () =
    let u = sweep_id rng n in
    let v = if Rng.bernoulli rng 0.15 then u else sweep_id rng n in
    P.Cost_link { u; v; w = sweep_cost rng }
  and node () = P.Cost_node { node = sweep_id rng n; cost = sweep_cost rng } in
  match Rng.int rng 12 with
  | 0 | 1 | 2 | 3 -> if model = `Link then link () else node ()
  | 4 -> if model = `Link then node () else link ()
  | 5 | 6 -> P.Leave { node = (if Rng.bernoulli rng 0.3 then 0 else sweep_id rng n) }
  | 7 -> P.Join { out = sweep_links rng n; inn = sweep_links rng n }
  | 8 | 9 ->
    P.Rejoin { node = sweep_id rng n; out = sweep_links rng n; inn = sweep_links rng n }
  | _ -> P.Pay

let sweep_session rng model =
  match model with
  | `Node -> W.make ~root:0 (`Node (Test_util.random_ring_graph ~max_n:16 rng))
  | `Link ->
    let n = 4 + Rng.int rng 12 in
    let links = ref [] in
    for u = 0 to n - 1 do
      for v = 0 to n - 1 do
        if u <> v && Rng.bernoulli rng 0.3 then
          links := (u, v, Rng.float_range rng 0.5 10.0) :: !links
      done
    done;
    W.make ~root:0 (`Link (Wnet_graph.Digraph.create ~n ~links:!links))

(* Every edit is answered [ack] or [err] and none raises; a refused edit
   changes nothing, so a later pay equals a fresh session's fed only the
   accepted edits. *)
let malformed_sweep_prop model seed =
  let sess = sweep_session (Rng.create seed) model in
  let replay = sweep_session (Rng.create seed) model in
  let rng = Rng.create (seed lxor 0x5bd1e995) in
  let accepted = ref [] in
  for _ = 1 to 1 + Rng.int rng 40 do
    let (module S : W.S) = sess in
    let req = sweep_request rng model (S.n ()) in
    match P.handle sess req with
    | exception e ->
      QCheck2.Test.fail_reportf "%s raised %s" (P.print_request req)
        (Printexc.to_string e)
    | [ P.Ack _ ] -> accepted := req :: !accepted
    | [ P.Err _ ] -> ()
    | _ when req = P.Pay -> ()
    | rs ->
      QCheck2.Test.fail_reportf "%s answered %s" (P.print_request req)
        (String.concat "; " (List.map P.print_response rs))
  done;
  List.iter
    (fun req ->
      match P.handle replay req with
      | [ P.Ack _ ] -> ()
      | _ -> QCheck2.Test.fail_reportf "replay refused %s" (P.print_request req))
    (List.rev !accepted);
  let pay s = List.map P.print_response (P.handle s P.Pay) in
  let got = pay sess and want = pay replay in
  if got <> want then
    QCheck2.Test.fail_reportf "pay after the sweep:\n%s\nfresh session:\n%s"
      (String.concat "\n" got) (String.concat "\n" want);
  true

(* The link engine reads a link's row by [u] before the graph's own
   range check: the session checks both endpoints first and says so. *)
let test_link_endpoint_range () =
  let session =
    W.make ~root:0
      (`Link (Wnet_graph.Digraph.create ~n:3 ~links:[ (2, 1, 1.0); (1, 0, 1.0) ]))
  in
  List.iter
    (fun (u, v) ->
      match P.handle session (P.Cost_link { u; v; w = 1.0 }) with
      | [ P.Err m ] ->
        Alcotest.(check bool)
          (Printf.sprintf "cost %d %d names the range: %S" u v m)
          true
          (Test_util.contains m "out of range")
      | rs ->
        Alcotest.failf "cost %d %d: unexpected %s" u v
          (String.concat "; " (List.map P.print_response rs)))
    [ (999, 2); (2, 999); (-1, 0); (0, -1); (max_int, 1) ];
  let (module S : W.S) = session in
  Alcotest.(check int) "refused edits leave the version" 0 (S.version ())

(* ---------------- the pay view, held to the list path ---------------- *)

module B = Wnet_proto_bin

(* A sparse session of either model: a random tree plus a few chords,
   so cut relays (infinite charges) and long paths both occur. *)
let view_session rng model pool =
  match model with
  | `Node ->
    W.make ~pool ~root:0 (`Node (Test_util.random_sparse_graph ~max_n:24 rng))
  | `Link ->
    let n = 4 + Rng.int rng 24 in
    let w () = Rng.float_range rng 0.5 10.0 in
    let links = ref [] in
    for v = 1 to n - 1 do
      let u = Rng.int rng v in
      links := (u, v, w ()) :: (v, u, w ()) :: !links
    done;
    for _ = 1 to Rng.int rng n do
      let u = Rng.int rng n and v = Rng.int rng n in
      if u <> v then links := (u, v, w ()) :: !links
    done;
    W.make ~pool ~root:0 (`Link (Wnet_graph.Digraph.create ~n ~links:!links))

(* A burst of 1, 4 or 16 cost re-declarations (a link now and then
   removed, a short decimal now and then), sometimes a departure. *)
let view_burst rng model n =
  let cost () =
    match Rng.int rng 10 with
    | 0 -> infinity
    | 1 | 2 | 3 -> float_of_int (50 + Rng.int rng 1000) /. 100.0
    | _ -> Rng.float_range rng 0.5 10.0
  in
  let edit () =
    match model with
    | `Node -> P.Cost_node { node = Rng.int rng n; cost = cost () }
    | `Link ->
      let u = Rng.int rng n in
      let v = (u + 1 + Rng.int rng (n - 1)) mod n in
      P.Cost_link { u; v; w = cost () }
  in
  let edits = List.init [| 1; 4; 16 |].(Rng.int rng 3) (fun _ -> edit ()) in
  if Rng.int rng 8 = 0 then edits @ [ P.Leave { node = 1 + Rng.int rng (n - 1) } ]
  else edits

let bits = Int64.bits_of_float

let same_reply a b =
  match (a, b) with
  | P.Served { src; path; charge }, P.Served { src = s'; path = p'; charge = c' }
    ->
    src = s' && path = p' && bits charge = bits c'
  | P.Paid { served; unbounded; total }, P.Paid { served = s'; unbounded = u'; total = t' }
    ->
    served = s' && unbounded = u' && bits total = bits t'
  | _ -> false

let decode_frames bytes =
  let d = B.dec_create () and v = B.make_view () in
  B.dec_feed d bytes 0 (Bytes.length bytes);
  let rec go acc =
    match B.decode_response d v with
    | `Resp r -> go (r :: acc)
    | `Need_more -> List.rev acc
    | `Corrupt m -> Test.fail_reportf "pay frame corrupt: %s" m
  in
  go []

(* Two replicas fed the same bursts: one's pay view rendered by the
   server's encoders (text through one memo kept across every pay,
   binary frames), the other's reply list from [handle], printed by
   the Printf reference.  Text bytes and decoded frames must agree. *)
let view_prop (model, domains) seed =
  Wnet_par.with_pool ~domains (fun pool ->
      let sess = view_session (Rng.create seed) model pool
      and mirror = view_session (Rng.create seed) model pool in
      let rng = Rng.create (seed lxor 0x2f6b) in
      let memo = P.memo_create () and te = P.enc_create () and be = B.enc_create () in
      let (module S : W.S) = sess in
      for burst = 1 to 12 do
        List.iter
          (fun r -> ignore (P.handle sess r); ignore (P.handle mirror r))
          (view_burst rng model (S.n ()));
        let p = S.pay () in
        P.encode_pay te memo p;
        let text = Bytes.sub_string (P.enc_buffer te) (P.enc_offset te) (P.enc_pending te) in
        P.enc_consume te (P.enc_pending te);
        B.encode_pay be p;
        let frames = Bytes.sub (B.enc_buffer be) (B.enc_offset be) (B.enc_pending be) in
        B.enc_consume be (B.enc_pending be);
        let want = P.handle mirror P.Pay in
        if not (String.equal text (reference want)) then
          Test.fail_reportf "burst %d: view text %S, list text %S" burst text
            (reference want);
        let got = decode_frames frames in
        if not (List.length got = List.length want && List.for_all2 same_reply got want)
        then Test.fail_reportf "burst %d: view frames decode differently" burst
      done;
      true)

(* The view is the session's: a second pay at the same version hands
   back the same view with the same content, and an edit shows after
   the next pay. *)
let test_pay_view_lifetime () =
  let (module S : W.S) = W.make ~root:0 (`Link (fig_digraph ())) in
  let content (p : W.pay) =
    ( p.count,
      Array.sub p.src 0 p.count,
      Array.sub p.hops 0 p.off.(p.count),
      Array.sub p.off 0 (p.count + 1),
      Array.map bits (Array.sub p.charge 0 p.count),
      p.unbounded,
      bits p.total )
  in
  let p1 = S.pay () in
  let c1 = content p1 in
  let p2 = S.pay () in
  Alcotest.(check bool) "the same view at the same version" true (p1 == p2);
  Alcotest.(check bool) "the same content at the same version" true (content p2 = c1);
  Alcotest.(check (array int)) "src 2 goes through 1" [| 1; 0; 2; 1; 0 |]
    (Array.sub p1.hops 0 p1.off.(p1.count));
  ignore (S.apply (W.Set_link_cost { u = 2; v = 0; w = 0.5 }));
  let p3 = S.pay () in
  Alcotest.(check (array int)) "after the edit, src 2 goes direct" [| 1; 0; 2; 0 |]
    (Array.sub p3.hops 0 p3.off.(p3.count));
  let fresh =
    W.make ~root:0
      (`Link
        (Wnet_graph.Digraph.create ~n:3
           ~links:[ (2, 1, 1.0); (1, 0, 1.0); (2, 0, 0.5) ]))
  in
  let (module F : W.S) = fresh in
  Alcotest.(check bool) "the refilled view = a fresh session's" true
    (content p3 = content (F.pay ()))

(* A view kept across bursts that move labels but no parent: its paths
   stay, its charges are refilled, and it must equal a fresh fill of
   the same payment pass into a new view, field for field and bit for
   bit.  A raw engine replays every delta to hand that pass over.  At
   least [kept_floor] of the 30 bursts must keep every parent and move
   a label. *)
let kept_floor = 8

let kept_view_prop (model, domains) seed =
  Wnet_par.with_pool ~domains (fun pool ->
      let rng = Rng.create seed in
      let g =
        match model with
        | `Node -> `Node (Test_util.random_ring_graph ~min_n:20 rng)
        | `Link ->
          let n = 10 + Rng.int rng 20 in
          let w () = Rng.float_range rng 0.5 10.0 in
          let links =
            List.concat_map
              (fun v -> [ (v, (v + 1) mod n, w ()); ((v + 1) mod n, v, w ()) ])
              (List.init n Fun.id)
          in
          `Link (Wnet_graph.Digraph.create ~n ~links)
      in
      let (module S : W.S) = W.make ~pool ~root:0 g in
      let pass, cost, apply =
        match g with
        | `Node g ->
          let raw = W.Node_session.create ~pool g ~root:0 in
          ( (fun () -> W.Node_session.charges raw),
            (fun x _ -> W.Node_session.cost raw x),
            function
            | W.Set_node_cost { node; cost } -> W.Node_session.set_cost raw node cost
            | _ -> invalid_arg "kept_view_prop: delta" )
        | `Link g ->
          let raw = W.Link_session.create ~pool g ~root:0 in
          ( (fun () -> W.Link_session.charges raw),
            W.Link_session.cost raw,
            function
            | W.Set_link_cost { u; v; w } -> W.Link_session.set_cost raw u v w
            | _ -> invalid_arg "kept_view_prop: delta" )
      in
      let content (p : W.pay) =
        ( p.count,
          Array.sub p.src 0 p.count,
          Array.sub p.off 0 (p.count + 1),
          Array.sub p.hops 0 p.off.(p.count),
          Array.map bits (Array.sub p.charge 0 p.count),
          p.unbounded,
          bits p.total )
      in
      let shape () =
        let tree, _ = pass () in
        (Array.copy tree.Wnet_graph.Dijkstra.parent, Array.map bits tree.Wnet_graph.Dijkstra.dist)
      in
      let r = Rng.create (seed lxor 0x5bd1e995) in
      let kept = ref 0 in
      ignore (S.pay ());
      let before = ref (shape ()) in
      for burst = 1 to 30 do
        let deltas =
          if Rng.bernoulli r 0.7 then
            Test_util.drift_burst r ~model ~root:0 ~parents:(fst !before) ~cost
              (1 + Rng.int r 6)
          else
            (* re-declarations only: a departure or a deletion could
               strand the root and empty every later drift *)
            List.filter_map
              (function
                | P.Cost_node { node; cost } when cost < infinity ->
                  Some (W.Set_node_cost { node; cost })
                | P.Cost_link { u; v; w } when w < infinity ->
                  Some (W.Set_link_cost { u; v; w })
                | _ -> None)
              (view_burst r model (S.n ()))
        in
        List.iter (fun d -> ignore (S.apply d); apply d) deltas;
        let got = content (S.pay ()) in
        if got <> content (W.fresh_pay ~root:0 (pass ())) then
          Test.fail_reportf "burst %d: the kept view differs from a fresh fill" burst;
        let ((p1, d1) as now) = shape () in
        let p0, d0 = !before in
        if deltas <> [] && p0 = p1 && d0 <> d1 then incr kept;
        before := now
      done;
      !kept >= kept_floor
      || Test.fail_reportf "%d of 30 bursts moved labels and kept every parent" !kept)

(* ---------------- the in-place request reader ---------------- *)

(* Lines the in-place reader of [cost] and [pay] must read exactly as
   the tokenizer does, or hand to it: keywords, ints with signs, [_],
   hex and past 18 digits, floats with nan/inf/hex/[_] and trailing
   junk, runs of spaces and tabs, the blanks [String.trim] strips at
   the ends and keeps inside, comments and empty lines. *)
let line_piece_gen =
  Gen.oneof
    [
      Gen.oneofl
        [ "cost"; "pay"; "join"; "leave"; "stats"; "quit"; "Cost"; "costs";
          "pays"; "#"; "#cost"; "--"; "1:2.5"; "\r"; "1\r2"; "3\012" ];
      Gen.map string_of_int (Gen.int_range 0 99999);
      Gen.oneofl
        [ "+5"; "-3"; "0x1f"; "0b101"; "0o17"; "1_000"; "007"; "-0";
          "123456789012345678"; "1234567890123456789"; "12345678901234567890";
          "9223372036854775807"; "4611686018427387904"; "9999999999999999999";
          "18446744073709551617"; "1a"; "٣" ];
      Gen.map (Printf.sprintf "%.17g") float_gen;
      Gen.map (Printf.sprintf "%h") float_gen;
      Gen.oneofl
        [ "nan"; "-nan"; "inf"; "-inf"; "infinity"; "NaN"; "0x1p3"; "1_000.5";
          "1."; ".5"; "1e"; "1e5"; "abc"; "1.5x"; "+2.5"; "-0.0"; "1e400";
          "4.5"; "0.1"; "_1" ];
    ]

let request_line_gen =
  let blank = Gen.oneofl [ ""; ""; ""; " "; "\t"; "\r"; "\n"; "\012"; " \r\n" ] in
  let sep = Gen.oneofl [ " "; " "; "  "; "\t"; " \t "; "\t\t" ] in
  let line head rest =
    Gen.map4
      (fun lead h rest trail ->
        lead ^ h ^ String.concat "" (List.map (fun (s, p) -> s ^ p) rest) ^ trail)
      blank head rest blank
  in
  let weight = Gen.oneof [ Gen.map (Printf.sprintf "%.17g") float_gen; line_piece_gen ] in
  let id = Gen.oneof [ Gen.map string_of_int (Gen.int_range 0 99999); line_piece_gen ] in
  Gen.oneof
    [
      line
        (Gen.oneof [ Gen.oneofl [ "cost"; "cost"; "cost"; "pay"; "" ]; line_piece_gen ])
        (Gen.list_size (Gen.int_range 0 4) (Gen.pair sep line_piece_gen));
      (* the reader's own shapes, mostly well formed *)
      line (Gen.pure "cost")
        (Gen.oneof
           [
             Gen.map2 (fun a b -> [ a; b ]) (Gen.pair sep id) (Gen.pair sep weight);
             Gen.map3 (fun a b c -> [ a; b; c ]) (Gen.pair sep id) (Gen.pair sep id)
               (Gen.pair sep weight);
           ]);
    ]

let float_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let request_bits_equal (a : P.request) (b : P.request) =
  let eps = List.equal (fun (v, w) (v', w') -> v = v' && float_bits w w') in
  match (a, b) with
  | P.Cost_node { node; cost }, P.Cost_node { node = n'; cost = c' } ->
    node = n' && float_bits cost c'
  | P.Cost_link { u; v; w }, P.Cost_link { u = u'; v = v'; w = w' } ->
    u = u' && v = v' && float_bits w w'
  | P.Join { out; inn }, P.Join { out = o'; inn = i' } -> eps out o' && eps inn i'
  | P.Rejoin { node; out; inn }, P.Rejoin { node = n'; out = o'; inn = i' } ->
    node = n' && eps out o' && eps inn i'
  | _ -> a = b

let reader_prop line =
  let show = function
    | Ok None -> "Ok None"
    | Ok (Some r) -> "Ok " ^ P.print_request r
    | Error m -> "Error " ^ m
  in
  let got = P.parse_request line and want = Proto_ref.parse_request line in
  let same =
    match (got, want) with
    | Ok None, Ok None -> true
    | Ok (Some a), Ok (Some b) -> request_bits_equal a b
    | Error a, Error b -> String.equal a b
    | _ -> false
  in
  same || Test.fail_reportf "%S: %s, reference %s" line (show got) (show want)

let suite =
  [
    Alcotest.test_case "blank lines and comments are silent" `Quick
      test_blank_and_comment;
    Alcotest.test_case "malformed requests hit the error channel" `Quick
      test_malformed;
    Alcotest.test_case "worked parse examples" `Quick test_parse_examples;
    Alcotest.test_case "stats line: 10-token form rejected, conn line needs proto"
      `Quick test_stats_line_exact;
    Alcotest.test_case "shard wire: session attach + per-shard stats row"
      `Quick test_shard_wire;
    Alcotest.test_case "handle drives a session end to end" `Quick
      test_handle_drives_session;
    Test_util.qcheck_case ~count:500 "float_to_string round-trips bitwise"
      float_gen float_roundtrip_prop;
    Test_util.qcheck_case ~count:500 "parse_request (print_request r) = r"
      request_gen request_roundtrip_prop;
    Test_util.qcheck_case ~count:500 "parse_response (print_response r) = r"
      response_gen response_roundtrip_prop;
    Test_util.qcheck_case ~count:500
      "stats line parses at every counter value in full; shorter even prefixes fail"
      stats_arity_gen stats_arity_prop;
    Alcotest.test_case "line decoder: 1 MiB cap, partial and complete" `Quick
      test_line_cap;
    Test_util.qcheck_case ~count:1000
      "text encoder = Printf reference + newline, every constructor"
      render_gen render_prop;
    Test_util.qcheck_case ~count:300
      "pay-line memo output = fresh output over reply sequences" memo_gen
      memo_prop;
    Test_util.qcheck_case ~count:300 "encoder drained at random split points"
      split_gen split_prop;
    Alcotest.test_case "encoder scratch over 4 KiB shrinks once drained"
      `Quick test_scratch_shrinks;
    Test_util.qcheck_case ~count:500 "line decoder fed at random split points"
      (Gen.pair line_text_gen (Gen.list_size (Gen.int_range 0 8) Gen.nat))
      lines_prop;
    Alcotest.test_case "link endpoints out of range: err names it" `Quick
      test_link_endpoint_range;
    Test_util.qcheck_case ~count:300 "malformed link edits: err, never raise"
      Test_util.seed_gen (malformed_sweep_prop `Link);
    Test_util.qcheck_case ~count:300 "malformed node edits: err, never raise"
      Test_util.seed_gen (malformed_sweep_prop `Node);
    Test_util.qcheck_case ~count:20000
      "float writer = Printf reference: bit patterns, edges, 12-digit band"
      writer_float_gen writer_prop;
    Test_util.qcheck_case ~count:40 "pay view = list path: link, one domain"
      Test_util.seed_gen (view_prop (`Link, 1));
    Test_util.qcheck_case ~count:40 "pay view = list path: link, three domains"
      Test_util.seed_gen (view_prop (`Link, 3));
    Test_util.qcheck_case ~count:40 "pay view = list path: node, one domain"
      Test_util.seed_gen (view_prop (`Node, 1));
    Test_util.qcheck_case ~count:40 "pay view = list path: node, three domains"
      Test_util.seed_gen (view_prop (`Node, 3));
    Alcotest.test_case "pay view: reused at a version, refilled after an edit"
      `Quick test_pay_view_lifetime;
    Test_util.qcheck_case ~count:20 "kept pay view = fresh fill: link, pools 1/3"
      Test_util.seed_gen (fun seed ->
        kept_view_prop (`Link, 1) seed && kept_view_prop (`Link, 3) seed);
    Test_util.qcheck_case ~count:20 "kept pay view = fresh fill: node, pools 1/3"
      Test_util.seed_gen (fun seed ->
        kept_view_prop (`Node, 1) seed && kept_view_prop (`Node, 3) seed);
    Test_util.qcheck_case ~count:5000
      "request reader = tokenizer reference: result, error text, float bits"
      request_line_gen reader_prop;
  ]
