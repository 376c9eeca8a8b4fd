(* Wnet_server integration: a real Unix-domain socket server on a
   background thread, driven by real client connections.

   The load-bearing test interleaves edits from 4 concurrent clients
   with payment collections and checks the socket replies three ways:
   textually bit-identical to an in-process mirror session driven
   through the same Wnet_proto.handle (the stdin path), bit-identical
   ([Float.equal]) to the from-scratch {!Payment_ref} on a tracked
   model digraph, and — via the stats counters — that every round's
   4-edit burst folded into exactly ONE invalidation pass. *)

module P = Wnet_proto
module W = Wnet_session
module Sv = Wnet_server
open Wnet_graph

let socket_path name =
  let p =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "wnet-%s-%d.sock" name (Unix.getpid ()))
  in
  (try Unix.unlink p with Unix.Unix_error _ -> ());
  p

(* Every test client reads with a receive timeout, so a server that
   stops answering fails the test (a read raises) instead of hanging
   the suite. *)
let read_timeout = 30.0

let connect_fd path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO read_timeout;
  fd

let connect path =
  let fd = connect_fd path in
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let send oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let expect_eof ic what =
  match input_line ic with
  | exception End_of_file -> ()
  | l -> Alcotest.failf "%s: expected EOF, got %S" what l

let chain_digraph () = Digraph.create ~n:3 ~links:[ (2, 1, 1.0); (1, 0, 1.0) ]

(* ---------------- smoke: one client, full request cycle ---------------- *)

let test_smoke () =
  let path = socket_path "smoke" in
  let server =
    Sv.create (Sv.Unix_path path) [| W.make ~root:0 (`Link (chain_digraph ())) |]
  in
  let th = Thread.create Sv.serve server in
  let fd, ic, oc = connect path in
  (match P.parse_response (input_line ic) with
  | Ok (P.Ready { model = `Link; n = 3; root = 0; _ }) -> ()
  | _ -> Alcotest.fail "greeting must be a ready banner");
  send oc "pay";
  let rec read_pay acc =
    let l = input_line ic in
    match P.parse_response l with
    | Ok (P.Paid _) -> List.rev (l :: acc)
    | Ok (P.Served _) -> read_pay (l :: acc)
    | _ -> Alcotest.failf "unexpected pay line %S" l
  in
  Alcotest.(check int) "two served lines + summary" 3
    (List.length (read_pay []));
  send oc "quit";
  Alcotest.(check string) "quit answered with bye" "bye" (input_line ic);
  expect_eof ic "after bye";
  Unix.close fd;
  Sv.shutdown server;
  Thread.join th;
  Alcotest.(check bool) "socket file removed on shutdown" false
    (Sys.file_exists path);
  let cs = Sv.stats server in
  Alcotest.(check int) "one client served" 1 cs.Sv.clients_served;
  Alcotest.(check int) "two requests" 2 cs.Sv.requests;
  Alcotest.(check int) "single shard" 1 (Array.length cs.Sv.per_shard)

(* ---------------- 4 concurrent clients, bit-identical ---------------- *)

let nclients = 4
let rounds = 5

(* Reusable generation barrier. *)
let barrier n =
  let m = Mutex.create () and c = Condition.create () in
  let count = ref 0 and gen = ref 0 in
  fun () ->
    Mutex.lock m;
    let g = !gen in
    incr count;
    if !count = n then begin
      count := 0;
      incr gen;
      Condition.broadcast c
    end
    else while !gen = g do Condition.wait c m done;
    Mutex.unlock m

(* Sparse-ish random digraph, dense enough that most sources are served. *)
let random_digraph seed ~n =
  let rng = Wnet_prng.Rng.create seed in
  let links = ref [] in
  let p = 3.5 /. float_of_int n in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && Wnet_prng.Rng.bernoulli rng p then
        links := (u, v, Wnet_prng.Rng.float_range rng 0.5 10.0) :: !links
    done
  done;
  Digraph.create ~n ~links:!links

let test_concurrent_clients () =
  let n = 24 in
  let dg = random_digraph 42 ~n in
  let links = Array.of_list (Digraph.links dg) in
  Alcotest.(check bool) "instance has enough links" true
    (Array.length links >= nclients);
  let step = Array.length links / nclients in
  (* each client owns one link and re-declares it with absolute weights,
     so the net topology per round is independent of arrival order *)
  let owned =
    Array.init nclients (fun i ->
        let u, v, _ = links.(i * step) in
        (u, v))
  in
  let weight i r = 1.0 +. (0.25 *. float_of_int i) +. (0.125 *. float_of_int r) in
  let path = socket_path "conc" in
  let server =
    Sv.create (Sv.Unix_path path)
      [| W.make ~root:0 (`Link (Digraph.create ~n ~links:(Digraph.links dg))) |]
  in
  let th = Thread.create Sv.serve server in
  let bar = barrier nclients in
  let pay_rounds = Array.make rounds [] in
  let stats_lines = ref [] in
  let failures = ref [] in
  let fail_mutex = Mutex.create () in
  let client i () =
    try
      let fd, ic, oc = connect path in
      ignore (input_line ic);
      for r = 0 to rounds - 1 do
        let u, v = owned.(i) in
        send oc
          (P.print_request (P.Cost_link { u; v; w = weight i r }));
        (match P.parse_response (input_line ic) with
        | Ok (P.Ack _) -> ()
        | _ -> failwith "cost not acked");
        bar ();
        (* all 4 edits of the round are in: client 0 collects payments *)
        if i = 0 then begin
          send oc "pay";
          let rec go acc =
            let l = input_line ic in
            match P.parse_response l with
            | Ok (P.Paid _) -> List.rev (l :: acc)
            | Ok (P.Served _) -> go (l :: acc)
            | _ -> failwith ("unexpected pay line " ^ l)
          in
          pay_rounds.(r) <- go []
        end;
        bar ()
      done;
      if i = 0 then begin
        send oc "stats";
        let l1 = input_line ic in
        let l2 = input_line ic in
        let l3 = input_line ic in
        stats_lines := [ l1; l2; l3 ]
      end;
      bar ();
      send oc "quit";
      let rec drain () =
        match input_line ic with
        | "bye" -> ()
        | _ -> drain ()
        | exception End_of_file -> ()
      in
      drain ();
      Unix.close fd
    with e ->
      Mutex.lock fail_mutex;
      failures := (i, Printexc.to_string e) :: !failures;
      Mutex.unlock fail_mutex
  in
  let ths = List.init nclients (fun i -> Thread.create (client i) ()) in
  List.iter Thread.join ths;
  Sv.shutdown server;
  Thread.join th;
  Alcotest.(check (list (pair int string))) "no client thread failed" []
    !failures;
  (* replay the same net edit sequence on a tracked model (oracle input)
     and on a mirror session driven through the stdin code path *)
  let model = Digraph.create ~n ~links:(Digraph.links dg) in
  let mirror =
    W.make ~root:0 (`Link (Digraph.create ~n ~links:(Digraph.links dg)))
  in
  for r = 0 to rounds - 1 do
    for i = 0 to nclients - 1 do
      let u, v = owned.(i) in
      Digraph.set_weight model u v (weight i r);
      ignore (P.handle mirror (P.Cost_link { u; v; w = weight i r }))
    done;
    let mirror_lines = List.map P.print_response (P.handle mirror P.Pay) in
    Alcotest.(check (list string))
      (Printf.sprintf "round %d: socket pay = stdin-path pay, textually" r)
      mirror_lines pay_rounds.(r);
    let oracle = Payment_ref.link model ~root:0 in
    List.iter
      (fun line ->
        match P.parse_response line with
        | Ok (P.Served { src; path; charge }) -> (
          match oracle.Payment_ref.results.(src) with
          | Some o ->
            Alcotest.(check (list int))
              (Printf.sprintf "round %d src %d path" r src)
              (Array.to_list o.Payment_ref.path) path;
            Alcotest.(check bool)
              (Printf.sprintf "round %d src %d charge bit-identical" r src)
              true
              (Float.equal charge o.Payment_ref.charge)
          | None -> Alcotest.failf "oracle does not serve source %d" src)
        | Ok (P.Paid { served; _ }) ->
          let oracle_served =
            Array.fold_left
              (fun acc -> function Some _ -> acc + 1 | None -> acc)
              0 oracle.Payment_ref.results
          in
          Alcotest.(check int)
            (Printf.sprintf "round %d served count" r)
            oracle_served served
        | _ -> Alcotest.failf "unparseable pay line %S" line)
      pay_rounds.(r)
  done;
  (match !stats_lines with
  | [ a; b; c ] ->
    (match P.parse_response a with
    | Ok (P.Session_stats st) ->
      Alcotest.(check int) "one invalidation pass per round" rounds
        st.W.inval_passes;
      Alcotest.(check int) "every edit from every client coalesced"
        (nclients * rounds) st.W.coalesced_edits
    | _ -> Alcotest.fail "first stats line must be session stats");
    (match P.parse_response b with
    | Ok (P.Server_stats { clients; _ }) ->
      Alcotest.(check int) "all clients connected at stats time" nclients
        clients
    | _ -> Alcotest.fail "second stats line must be server stats");
    (match P.parse_response c with
    | Ok (P.Conn_stats { requests; _ }) ->
      (* client 0: rounds edits + rounds pays + stats itself *)
      Alcotest.(check int) "connection request counter" ((2 * rounds) + 1)
        requests
    | _ -> Alcotest.fail "third stats line must be conn stats")
  | _ -> Alcotest.fail "stats reply must be three lines");
  let cs = Sv.stats server in
  Alcotest.(check int) "every client accepted" nclients cs.Sv.clients_served

(* ---------------- mixed proto=1 / proto=2 clients ---------------- *)

module B = Wnet_proto_bin

let write_all fd b off len =
  let rec go off len =
    if len > 0 then
      let n = Unix.write fd b off len in
      go (off + n) (len - n)
  in
  go off len

let bin_flush fd enc =
  write_all fd (B.enc_buffer enc) (B.enc_offset enc) (B.enc_pending enc);
  B.enc_consume enc (B.enc_pending enc)

(* Byte-at-a-time line read on the raw fd: must not over-read, because
   everything after the [ready proto=2] ack is binary frames. *)
let read_line_fd fd =
  let buf = Buffer.create 64 in
  let b = Bytes.create 1 in
  let rec go () =
    match Unix.read fd b 0 1 with
    | 0 -> Alcotest.failf "eof inside line %S" (Buffer.contents buf)
    | _ ->
      if Bytes.get b 0 = '\n' then Buffer.contents buf
      else begin
        Buffer.add_char buf (Bytes.get b 0);
        go ()
      end
  in
  go ()

let bin_client path =
  let fd = connect_fd path in
  (match P.parse_response (read_line_fd fd) with
  | Ok (P.Ready { proto = 1; _ }) -> ()
  | _ -> Alcotest.fail "binary client: greeting must be a proto=1 banner");
  let up = P.print_request (P.Proto { proto = B.version }) ^ "\n" in
  write_all fd (Bytes.of_string up) 0 (String.length up);
  (match P.parse_response (read_line_fd fd) with
  | Ok (P.Ready { proto = 2; _ }) -> ()
  | _ -> Alcotest.fail "upgrade must be acked with a proto=2 banner");
  (fd, B.enc_create (), B.dec_create (), B.make_view ())

let bin_recv fd dec view =
  let chunk = Bytes.create 4096 in
  let rec go () =
    match B.decode_response dec view with
    | `Resp r -> r
    | `Corrupt m -> Alcotest.failf "binary client: corrupt frame: %s" m
    | `Need_more ->
      let n = Unix.read fd chunk 0 (Bytes.length chunk) in
      if n = 0 then Alcotest.fail "binary client: eof mid-frame";
      B.dec_feed dec chunk 0 n;
      go ()
  in
  go ()

let expect_eof_fd fd what =
  let b = Bytes.create 1 in
  match Unix.read fd b 0 1 with
  | 0 -> ()
  | _ -> Alcotest.failf "%s: expected EOF" what

(* One session, one text client and one binary client: the payment
   stream must be bit-identical across codecs, and identical to the
   stdin code path fed the same edit order. *)
let test_mixed_proto () =
  let path = socket_path "mixed" in
  let server =
    Sv.create (Sv.Unix_path path) [| W.make ~root:0 (`Link (chain_digraph ())) |]
  in
  let th = Thread.create Sv.serve server in
  let fda, ica, oca = connect path in
  (match P.parse_response (input_line ica) with
  | Ok (P.Ready { proto = 1; _ }) -> ()
  | _ -> Alcotest.fail "text client greeting");
  let fdb, enc, dec, view = bin_client path in
  (* binary burst: two edits packed into ONE batch frame *)
  let edits =
    [
      P.Cost_link { u = 2; v = 1; w = 4.5 };
      P.Cost_link { u = 1; v = 0; w = 2.25 };
    ]
  in
  B.encode_requests enc edits;
  bin_flush fdb enc;
  (match bin_recv fdb dec view with
  | P.Ack { version = 1; _ } -> ()
  | r -> Alcotest.failf "first binary ack, got %s" (P.print_response r));
  (match bin_recv fdb dec view with
  | P.Ack { version = 2; _ } -> ()
  | r -> Alcotest.failf "second binary ack, got %s" (P.print_response r));
  (* a text edit on the same session *)
  let text_edit = P.Cost_link { u = 2; v = 0; w = 9.0 } in
  send oca (P.print_request text_edit);
  (match P.parse_response (input_line ica) with
  | Ok (P.Ack { version = 3; _ }) -> ()
  | _ -> Alcotest.fail "text ack");
  (* binary pay *)
  B.encode_request enc P.Pay;
  bin_flush fdb enc;
  let rec collect_bin acc =
    match bin_recv fdb dec view with
    | P.Served _ as r -> collect_bin (r :: acc)
    | P.Paid _ as r -> List.rev (r :: acc)
    | r -> Alcotest.failf "unexpected binary pay frame %s" (P.print_response r)
  in
  let bin_pay = collect_bin [] in
  (* text pay over the same (already flushed) session *)
  send oca "pay";
  let rec collect_text acc =
    let l = input_line ica in
    match P.parse_response l with
    | Ok (P.Paid _ as r) -> List.rev (r :: acc)
    | Ok (P.Served _ as r) -> collect_text (r :: acc)
    | _ -> Alcotest.failf "unexpected text pay line %S" l
  in
  let text_pay = collect_text [] in
  Alcotest.(check int) "both codecs serve the same sources"
    (List.length text_pay) (List.length bin_pay);
  List.iter2
    (fun b t ->
      Alcotest.(check bool)
        (Printf.sprintf "bit-identical across codecs: %s" (P.print_response b))
        true
        (Test_proto.response_equal b t))
    bin_pay text_pay;
  (* and identical to the stdin code path fed the same edit order *)
  let mirror = W.make ~root:0 (`Link (chain_digraph ())) in
  List.iter
    (fun r -> ignore (P.handle mirror r))
    (edits @ [ text_edit ]);
  let mirror_pay = P.handle mirror P.Pay in
  List.iter2
    (fun b m ->
      Alcotest.(check bool)
        (Printf.sprintf "binary = stdin path: %s" (P.print_response m))
        true
        (Test_proto.response_equal b m))
    bin_pay mirror_pay;
  (* stats through the binary codec *)
  B.encode_request enc P.Stats;
  bin_flush fdb enc;
  (match bin_recv fdb dec view with
  | P.Session_stats st ->
    Alcotest.(check int) "three edits" 3 st.W.edits;
    Alcotest.(check int) "all coalesced" 3 st.W.coalesced_edits;
    Alcotest.(check int) "one invalidation pass for the mixed burst" 1
      st.W.inval_passes
  | r -> Alcotest.failf "want session stats, got %s" (P.print_response r));
  (match bin_recv fdb dec view with
  | P.Server_stats { clients = 2; _ } -> ()
  | r -> Alcotest.failf "want server stats with 2 clients, got %s"
           (P.print_response r));
  (match bin_recv fdb dec view with
  | P.Conn_stats { proto = 2; requests; _ } ->
    (* proto upgrade + 2 edits + pay + stats *)
    Alcotest.(check int) "binary conn request counter" 5 requests
  | r -> Alcotest.failf "want proto=2 conn stats, got %s" (P.print_response r));
  (* text conn still reports proto=1 *)
  send oca "stats";
  ignore (input_line ica);
  ignore (input_line ica);
  (match P.parse_response (input_line ica) with
  | Ok (P.Conn_stats { proto = 1; requests = 3; _ }) -> ()
  | _ -> Alcotest.fail "text conn stats must report proto=1, 3 requests");
  (* goodbyes in both codecs *)
  B.encode_request enc P.Quit;
  bin_flush fdb enc;
  (match bin_recv fdb dec view with
  | P.Bye -> ()
  | r -> Alcotest.failf "binary quit answered %s" (P.print_response r));
  expect_eof_fd fdb "after binary bye";
  Unix.close fdb;
  send oca "quit";
  Alcotest.(check string) "text bye" "bye" (input_line ica);
  expect_eof ica "after text bye";
  Unix.close fda;
  Sv.shutdown server;
  Thread.join th

(* a corrupt binary frame is answered with err+bye and a close *)
let test_corrupt_frame_closes () =
  let path = socket_path "corrupt" in
  let server =
    Sv.create (Sv.Unix_path path) [| W.make ~root:0 (`Link (chain_digraph ())) |]
  in
  let th = Thread.create Sv.serve server in
  let fd, _, dec, view = bin_client path in
  (* frame with an unknown tag *)
  let bad = Bytes.of_string "\x03\x00\x00\x00\x01\x00\xff" in
  write_all fd bad 0 (Bytes.length bad);
  (match bin_recv fd dec view with
  | P.Err m ->
    Alcotest.(check bool) "error names the proto layer" true
      (String.length m >= 6 && String.sub m 0 6 = "proto:")
  | r -> Alcotest.failf "want err, got %s" (P.print_response r));
  (match bin_recv fd dec view with
  | P.Bye -> ()
  | r -> Alcotest.failf "want bye, got %s" (P.print_response r));
  expect_eof_fd fd "after corrupt-frame bye";
  Unix.close fd;
  Sv.shutdown server;
  Thread.join th

(* ---------------- real client exe: --batch flush on EOF -------------- *)

let client_exe () =
  List.find_opt Sys.file_exists
    [ "../bin/unicast.exe"; "_build/default/bin/unicast.exe" ]

let run_client_exe exe args input_lines =
  let in_r, in_w = Unix.pipe () and out_r, out_w = Unix.pipe () in
  Unix.set_close_on_exec in_w;
  Unix.set_close_on_exec out_r;
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: args))
      in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  let oc = Unix.out_channel_of_descr in_w in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    input_lines;
  close_out oc;
  let ic = Unix.in_channel_of_descr out_r in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (List.rev !lines, status)

(* Regression: a trailing pack smaller than the batch threshold must
   still reach the server when stdin closes — in both codecs.  The
   session counters prove each 3-edit burst arrived (and coalesced). *)
let test_client_batch_eof () =
  match client_exe () with
  | None -> Alcotest.fail "client exe not built (expected ../bin/unicast.exe)"
  | Some exe ->
    let path = socket_path "batcheof" in
    let server =
      Sv.create (Sv.Unix_path path)
        [| W.make ~root:0 (`Link (chain_digraph ())) |]
    in
    let th = Thread.create Sv.serve server in
    (* the legs must declare DIFFERENT weights: a same-weight re-declare
       is a no-op edit (no version bump), which would mask a lost pack *)
    let check_leg what args edits first_version =
      let lines, status = run_client_exe exe args edits in
      (match status with
      | Unix.WEXITED 0 -> ()
      | _ -> Alcotest.failf "%s: client exited non-zero" what);
      let acks =
        List.filter_map
          (fun l ->
            match P.parse_response l with
            | Ok (P.Ack { version; _ }) -> Some version
            | Ok (P.Ready _) -> None
            | _ -> Alcotest.failf "%s: unexpected client line %S" what l)
          lines
      in
      Alcotest.(check (list int))
        (Printf.sprintf "%s: trailing pack acked at EOF" what)
        [ first_version; first_version + 1; first_version + 2 ]
        acks
    in
    check_leg "text batch"
      [ "client"; "--socket"; path; "--batch"; "8" ]
      [ "cost 2 1 7.5"; "cost 1 0 6.25"; "cost 2 0 9.0" ]
      1;
    check_leg "binary batch"
      [ "client"; "--socket"; path; "--proto"; "2"; "--batch"; "8" ]
      [ "cost 2 1 3.5"; "cost 1 0 2.75"; "cost 2 0 1.5" ]
      4;
    (* both bursts reached the session; one pay folds all six edits *)
    let fd, ic, oc = connect path in
    ignore (input_line ic);
    send oc "pay";
    let rec to_paid () =
      match P.parse_response (input_line ic) with
      | Ok (P.Paid _) -> ()
      | _ -> to_paid ()
    in
    to_paid ();
    send oc "stats";
    (match P.parse_response (input_line ic) with
    | Ok (P.Session_stats st) ->
      Alcotest.(check int) "six edits arrived" 6 st.W.edits;
      Alcotest.(check int) "all six coalesced" 6 st.W.coalesced_edits;
      Alcotest.(check int) "single invalidation pass" 1 st.W.inval_passes
    | _ -> Alcotest.fail "want session stats");
    ignore (input_line ic);
    ignore (input_line ic);
    send oc "quit";
    let rec drain () =
      match input_line ic with
      | exception End_of_file -> ()
      | _ -> drain ()
    in
    drain ();
    Unix.close fd;
    Sv.shutdown server;
    Thread.join th

(* ---------------- idle disconnect ---------------- *)

let test_idle_disconnect () =
  let path = socket_path "idle" in
  let server =
    Sv.create ~idle_timeout:0.2 (Sv.Unix_path path)
      [| W.make ~root:0 (`Link (chain_digraph ())) |]
  in
  let th = Thread.create Sv.serve server in
  let fd, ic, _ = connect path in
  ignore (input_line ic);
  Alcotest.(check string) "idle client told why" "err idle timeout"
    (input_line ic);
  Alcotest.(check string) "then dismissed" "bye" (input_line ic);
  expect_eof ic "after idle bye";
  Unix.close fd;
  Sv.shutdown server;
  Thread.join th

(* ---------------- graceful shutdown says bye to everyone ------------- *)

let test_shutdown_drains () =
  let path = socket_path "drain" in
  let server =
    Sv.create (Sv.Unix_path path) [| W.make ~root:0 (`Link (chain_digraph ())) |]
  in
  let th = Thread.create Sv.serve server in
  let c1 = connect path and c2 = connect path in
  let greet (_, ic, _) = ignore (input_line ic) in
  greet c1;
  greet c2;
  (* make sure one request went through before the shutdown *)
  let _, ic1, oc1 = c1 in
  send oc1 "pay";
  let rec skip_pay () =
    match P.parse_response (input_line ic1) with
    | Ok (P.Paid _) -> ()
    | _ -> skip_pay ()
  in
  skip_pay ();
  Sv.shutdown server;
  Thread.join th;
  List.iter
    (fun (fd, ic, _) ->
      Alcotest.(check string) "shutdown says bye" "bye" (input_line ic);
      expect_eof ic "after shutdown bye";
      Unix.close fd)
    [ c1; c2 ];
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path)

(* ---------------- multi-shard determinism ---------------- *)

(* Two access-point sessions on different random digraphs, two clients
   per session, across shard counts 1, 2 and 4.  The payment stream of
   each session must be bit-identical at every shard count (and to the
   stdin code path), and the per-shard stats rows must sum to the
   server totals on the same wire reply. *)

let shard_specs = [| (42, 24); (77, 18) |]
let shard_rounds = 4

let shard_owned =
  Array.map
    (fun (seed, n) ->
      let links = Array.of_list (Digraph.links (random_digraph seed ~n)) in
      let step = Array.length links / 2 in
      Array.init 2 (fun j ->
          let u, v, _ = links.(j * step) in
          (u, v)))
    shard_specs

(* client i edits session (i mod 2); absolute weights keep the net
   round state independent of arrival order *)
let shard_weight i r =
  2.0 +. (0.5 *. float_of_int i) +. (0.125 *. float_of_int r)

let run_sharded shards =
  let path = socket_path (Printf.sprintf "det%d" shards) in
  let sessions =
    Array.map
      (fun (seed, n) -> W.make ~root:0 (`Link (random_digraph seed ~n)))
      shard_specs
  in
  let server = Sv.create ~shards (Sv.Unix_path path) sessions in
  let th = Thread.create Sv.serve server in
  let bar = barrier 4 in
  let pays = Array.map (fun _ -> Array.make shard_rounds []) shard_specs in
  let stats_box = ref [] in
  let failures = ref [] in
  let fail_mutex = Mutex.create () in
  let client i () =
    try
      let k = i mod 2 and j = i / 2 in
      let fd, ic, oc = connect path in
      (match P.parse_response (input_line ic) with
      | Ok (P.Ready _) -> ()
      | _ -> failwith "greeting not a ready banner");
      send oc (P.print_request (P.Attach { session = k }));
      let _, n = shard_specs.(k) in
      (match P.parse_response (input_line ic) with
      | Ok (P.Ready { n = n'; _ }) when n' = n -> ()
      | Ok r ->
        failwith ("attach not acked with the target banner: "
                  ^ P.print_response r)
      | _ -> failwith "attach ack unparseable");
      for r = 0 to shard_rounds - 1 do
        let u, v = shard_owned.(k).(j) in
        send oc (P.print_request (P.Cost_link { u; v; w = shard_weight i r }));
        (match P.parse_response (input_line ic) with
        | Ok (P.Ack _) -> ()
        | _ -> failwith "cost not acked");
        bar ();
        (* both edits of the session are in: its first client pays *)
        if j = 0 then begin
          send oc "pay";
          let rec go acc =
            let l = input_line ic in
            match P.parse_response l with
            | Ok (P.Paid _) -> List.rev (l :: acc)
            | Ok (P.Served _) -> go (l :: acc)
            | _ -> failwith ("unexpected pay line " ^ l)
          in
          pays.(k).(r) <- go []
        end;
        bar ()
      done;
      if i = 0 then begin
        send oc "stats";
        let nlines = 2 + (if shards > 1 then shards else 0) + 1 in
        let rec read_n acc m =
          if m = 0 then List.rev acc else read_n (input_line ic :: acc) (m - 1)
        in
        stats_box := read_n [] nlines
      end;
      bar ();
      send oc "quit";
      let rec drain () =
        match input_line ic with
        | "bye" -> ()
        | _ -> drain ()
        | exception End_of_file -> ()
      in
      drain ();
      Unix.close fd
    with e ->
      Mutex.lock fail_mutex;
      failures := (i, Printexc.to_string e) :: !failures;
      Mutex.unlock fail_mutex
  in
  let ths = List.init 4 (fun i -> Thread.create (client i) ()) in
  List.iter Thread.join ths;
  Sv.shutdown server;
  Thread.join th;
  Alcotest.(check (list (pair int string)))
    (Printf.sprintf "shards=%d: no client thread failed" shards)
    [] !failures;
  (* the wire stats reply: session line, server totals, one row per
     shard (only when shards > 1), conn line — rows sum to totals *)
  (match !stats_box with
  | session_line :: server_line :: tail ->
    (match P.parse_response session_line with
    | Ok (P.Session_stats _) -> ()
    | _ -> Alcotest.failf "first stats line not session stats: %S" session_line);
    let rec split_rows acc = function
      | [ last ] -> (List.rev acc, last)
      | x :: tl -> split_rows (x :: acc) tl
      | [] -> Alcotest.fail "stats reply too short"
    in
    let row_lines, conn_line = split_rows [] tail in
    (match P.parse_response conn_line with
    | Ok (P.Conn_stats _) -> ()
    | _ -> Alcotest.failf "last stats line not conn stats: %S" conn_line);
    if shards = 1 then
      Alcotest.(check int) "no shard rows on a single-shard reply" 0
        (List.length row_lines)
    else begin
      Alcotest.(check int)
        (Printf.sprintf "shards=%d: one breakdown row per shard" shards)
        shards (List.length row_lines);
      let row_sums =
        List.fold_left
          (fun (a1, a2, a3, a4, a5, a6, a7, a8) l ->
            match P.parse_response l with
            | Ok
                (P.Shard_stats
                  {
                    conns;
                    requests;
                    edits;
                    coalesced;
                    cache_hits;
                    cache_misses;
                    bytes_in;
                    bytes_out;
                    _;
                  }) ->
              ( a1 + conns,
                a2 + requests,
                a3 + edits,
                a4 + coalesced,
                a5 + cache_hits,
                a6 + cache_misses,
                a7 + bytes_in,
                a8 + bytes_out )
            | _ -> Alcotest.failf "not a shard row: %S" l)
          (0, 0, 0, 0, 0, 0, 0, 0) row_lines
      in
      match P.parse_response server_line with
      | Ok
          (P.Server_stats
            {
              clients;
              requests;
              edits;
              coalesced;
              cache_hits;
              cache_misses;
              bytes_in;
              bytes_out;
            }) ->
        Alcotest.(check bool)
          (Printf.sprintf "shards=%d: shard rows sum to the server totals"
             shards)
          true
          (row_sums
          = ( clients,
              requests,
              edits,
              coalesced,
              cache_hits,
              cache_misses,
              bytes_in,
              bytes_out ))
      | _ -> Alcotest.failf "second stats line not server stats: %S" server_line
    end
  | _ -> Alcotest.fail "stats reply missing");
  let cs = Sv.stats server in
  Alcotest.(check int)
    (Printf.sprintf "shards=%d: one counter row per shard" shards)
    shards
    (Array.length cs.Sv.per_shard);
  Alcotest.(check int)
    (Printf.sprintf "shards=%d: four clients served" shards)
    4 cs.Sv.clients_served;
  pays

let test_multi_shard_determinism () =
  let base = run_sharded 1 in
  (* the single-shard transcripts are themselves checked against the
     stdin code path fed the same absolute edits *)
  Array.iteri
    (fun k (seed, n) ->
      let mirror = W.make ~root:0 (`Link (random_digraph seed ~n)) in
      for r = 0 to shard_rounds - 1 do
        for j = 0 to 1 do
          let u, v = shard_owned.(k).(j) in
          ignore
            (P.handle mirror
               (P.Cost_link { u; v; w = shard_weight ((2 * j) + k) r }))
        done;
        let want = List.map P.print_response (P.handle mirror P.Pay) in
        Alcotest.(check (list string))
          (Printf.sprintf "session %d round %d: socket pay = stdin path" k r)
          want
          base.(k).(r)
      done)
    shard_specs;
  List.iter
    (fun shards ->
      let pays = run_sharded shards in
      Array.iteri
        (fun k _ ->
          for r = 0 to shard_rounds - 1 do
            Alcotest.(check (list string))
              (Printf.sprintf
                 "shards=%d session %d round %d bit-identical to shards=1"
                 shards k r)
              base.(k).(r)
              pays.(k).(r)
          done)
        shard_specs)
    [ 2; 4 ]

(* ---------------- attach migration carries buffered input ------------- *)

let four_chain_links = [ (3, 2, 1.0); (2, 1, 1.0); (1, 0, 1.0) ]

(* One write carries [session 1] AND the requests behind it: the bytes
   buffered past the attach must migrate with the connection and be
   answered by the adopting shard, in order. *)
let test_attach_pipelining () =
  let path = socket_path "pipeline" in
  let server =
    Sv.create ~shards:2 (Sv.Unix_path path)
      [|
        W.make ~root:0 (`Link (chain_digraph ()));
        W.make ~root:0 (`Link (Digraph.create ~n:4 ~links:four_chain_links));
      |]
  in
  let th = Thread.create Sv.serve server in
  let fd, ic, oc = connect path in
  (match P.parse_response (input_line ic) with
  | Ok (P.Ready { n = 3; _ }) -> ()
  | _ -> Alcotest.fail "first banner must be session 0's");
  send oc "session 1\ncost 3 2 4.5\npay";
  (match P.parse_response (input_line ic) with
  | Ok (P.Ready { n = 4; _ }) -> ()
  | _ -> Alcotest.fail "attach must be acked with session 1's banner");
  (match P.parse_response (input_line ic) with
  | Ok (P.Ack { version = 1; _ }) -> ()
  | _ -> Alcotest.fail "pipelined edit must be acked by the adopting shard");
  let rec read_pay acc =
    let l = input_line ic in
    match P.parse_response l with
    | Ok (P.Paid _) -> List.rev (l :: acc)
    | Ok (P.Served _) -> read_pay (l :: acc)
    | _ -> Alcotest.failf "unexpected pay line %S" l
  in
  let got = read_pay [] in
  let mirror =
    W.make ~root:0 (`Link (Digraph.create ~n:4 ~links:four_chain_links))
  in
  ignore (P.handle mirror (P.Cost_link { u = 3; v = 2; w = 4.5 }));
  let want = List.map P.print_response (P.handle mirror P.Pay) in
  Alcotest.(check (list string)) "migrated pipeline served bit-identically"
    want got;
  (* an out-of-range attach is an error, not a close *)
  send oc "session 9";
  (match P.parse_response (input_line ic) with
  | Ok (P.Err m) ->
    Alcotest.(check string) "out-of-range attach names the bounds"
      "session: no session 9 (server hosts 2)" m
  | _ -> Alcotest.fail "out-of-range attach must answer err");
  send oc "quit";
  Alcotest.(check string) "bye" "bye" (input_line ic);
  expect_eof ic "after bye";
  Unix.close fd;
  Sv.shutdown server;
  Thread.join th

(* ---------------- shutdown drains every shard ---------------- *)

let test_shard_shutdown_drains () =
  let nsh = 4 in
  let path = socket_path "sharddrain" in
  let sessions =
    Array.init nsh (fun _ -> W.make ~root:0 (`Link (chain_digraph ())))
  in
  let server = Sv.create ~shards:nsh (Sv.Unix_path path) sessions in
  let th = Thread.create Sv.serve server in
  (* park one client on every shard (hash placement: session k -> shard k) *)
  let clients =
    List.init nsh (fun k ->
        let fd, ic, oc = connect path in
        ignore (input_line ic);
        send oc (P.print_request (P.Attach { session = k }));
        (match P.parse_response (input_line ic) with
        | Ok (P.Ready _) -> ()
        | _ -> Alcotest.failf "client %d: attach not acked" k);
        (fd, ic, oc))
  in
  Sv.shutdown server;
  Thread.join th;
  List.iter
    (fun (fd, ic, _) ->
      Alcotest.(check string) "every shard says bye on shutdown" "bye"
        (input_line ic);
      expect_eof ic "after shard bye";
      Unix.close fd)
    clients;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path)

(* ------- real client exe: --batch --verify-responses vs 2 shards ------- *)

(* Regression for the interleave bug: a batching, verifying client on
   session 1 runs against a 2-shard server while a second client
   hammers session 0 the whole time.  The batch client's stdout must be
   exactly its own session-1 transcript (the sessions have different
   sizes, so any foreign line would break the textual comparison), and
   the per-shard stats rows must survive the real exe's
   --verify-responses print/parse round-trip. *)
let test_client_batch_verify_sharded () =
  match client_exe () with
  | None -> Alcotest.fail "client exe not built (expected ../bin/unicast.exe)"
  | Some exe ->
    let path = socket_path "vsharded" in
    let server =
      Sv.create ~shards:2 (Sv.Unix_path path)
        [|
          W.make ~root:0 (`Link (chain_digraph ()));
          W.make ~root:0 (`Link (Digraph.create ~n:4 ~links:four_chain_links));
        |]
    in
    let th = Thread.create Sv.serve server in
    let stop = Atomic.make false in
    let noise =
      Thread.create
        (fun () ->
          let fd, ic, oc = connect path in
          ignore (input_line ic);
          let r = ref 0 in
          while not (Atomic.get stop) do
            incr r;
            send oc
              (P.print_request
                 (P.Cost_link
                    { u = 2; v = 1; w = 1.0 +. (0.001 *. float_of_int !r) }));
            (match P.parse_response (input_line ic) with
            | Ok (P.Ack _) -> ()
            | _ -> failwith "noise: cost not acked");
            send oc "pay";
            let rec to_paid () =
              match P.parse_response (input_line ic) with
              | Ok (P.Paid _) -> ()
              | Ok (P.Served _) -> to_paid ()
              | _ -> failwith "noise: bad pay line"
            in
            to_paid ()
          done;
          send oc "quit";
          let rec drain () =
            match input_line ic with
            | exception End_of_file -> ()
            | _ -> drain ()
          in
          drain ();
          Unix.close fd)
        ()
    in
    let lines, status =
      run_client_exe exe
        [ "client"; "--socket"; path; "--batch"; "4"; "--verify-responses" ]
        [
          "session 1";
          "cost 3 2 7.5";
          "cost 2 1 6.25";
          "cost 1 0 5.5";
          "pay";
          "stats";
          "quit";
        ]
    in
    Atomic.set stop true;
    Thread.join noise;
    Sv.shutdown server;
    Thread.join th;
    (match status with
    | Unix.WEXITED 0 -> ()
    | _ ->
      Alcotest.fail
        "verifying batch client exited non-zero (a response failed the \
         round-trip)");
    let is_stats l =
      match P.parse_response l with
      | Ok
          ( P.Session_stats _ | P.Server_stats _ | P.Shard_stats _
          | P.Conn_stats _ ) ->
        true
      | _ -> false
    in
    let shard_rows =
      List.filter_map
        (fun l ->
          match P.parse_response l with
          | Ok (P.Shard_stats { shard; _ }) -> Some shard
          | _ -> None)
        lines
    in
    Alcotest.(check (list int)) "both shard rows reached the real client"
      [ 0; 1 ] shard_rows;
    (* the stats reply depends on the noise client's timing; everything
       else must be the batch client's own transcript, bit-identical to
       the stdin path *)
    let own = List.filter (fun l -> not (is_stats l)) lines in
    let mirror0 = W.make ~root:0 (`Link (chain_digraph ())) in
    let mirror1 =
      W.make ~root:0 (`Link (Digraph.create ~n:4 ~links:four_chain_links))
    in
    (* evaluation order matters: each handle bumps the version *)
    let ack1 = P.handle mirror1 (P.Cost_link { u = 3; v = 2; w = 7.5 }) in
    let ack2 = P.handle mirror1 (P.Cost_link { u = 2; v = 1; w = 6.25 }) in
    let ack3 = P.handle mirror1 (P.Cost_link { u = 1; v = 0; w = 5.5 }) in
    let pay = P.handle mirror1 P.Pay in
    let bye = P.handle mirror1 P.Quit in
    let expected =
      List.concat_map
        (List.map P.print_response)
        [
          [ P.greeting mirror0 ];
          [ P.greeting mirror1 ];
          ack1;
          ack2;
          ack3;
          pay;
          bye;
        ]
    in
    Alcotest.(check (list string))
      "no foreign session's bytes interleave the batch transcript" expected
      own

(* ---------------- bounded buffers and pipelined bursts ---------------- *)

(* The stdin path's bytes for a reply list: the Printf reference, one
   line per response. *)
let stdin_bytes rs =
  String.concat "" (List.map (fun r -> Proto_ref.print_response r ^ "\n") rs)

let read_exactly fd len =
  let b = Bytes.create len in
  let rec go off =
    if off < len then begin
      let n = Unix.read fd b off (len - off) in
      if n = 0 then Alcotest.failf "eof after %d of %d bytes" off len;
      go (off + n)
    end
  in
  go 0;
  Bytes.to_string b

let copy_digraph dg = Digraph.create ~n:(Digraph.n dg) ~links:(Digraph.links dg)

let pay_lines ic oc =
  send oc "pay";
  let rec go acc =
    let l = input_line ic in
    match P.parse_response l with
    | Ok (P.Paid _) -> List.rev (l :: acc)
    | Ok (P.Served _) -> go (l :: acc)
    | _ -> Alcotest.failf "unexpected pay line %S" l
  in
  go []

(* 4096 edits in one write, then a pay: the server splits them across
   its 4 KiB reads, and every reply byte must equal the stdin path's. *)
let test_pipelined_burst () =
  let dg = random_digraph 42 ~n:24 in
  let links = Array.of_list (Digraph.links dg) in
  let path = socket_path "burst" in
  let server =
    Sv.create (Sv.Unix_path path) [| W.make ~root:0 (`Link (copy_digraph dg)) |]
  in
  let th = Thread.create Sv.serve server in
  let reqs =
    List.init 4096 (fun i ->
        let u, v, _ = links.(i mod Array.length links) in
        P.Cost_link { u; v; w = 1.0 +. (0.25 *. float_of_int (i mod 7)) })
    @ [ P.Pay ]
  in
  let mirror = W.make ~root:0 (`Link (copy_digraph dg)) in
  let want = String.concat "" (List.map (fun r -> stdin_bytes (P.handle mirror r)) reqs) in
  let fd = connect_fd path in
  ignore (read_line_fd fd);
  let text =
    String.concat "" (List.map (fun r -> P.print_request r ^ "\n") reqs)
  in
  write_all fd (Bytes.of_string text) 0 (String.length text);
  let got = read_exactly fd (String.length want) in
  Alcotest.(check bool) "burst replies byte-identical to the stdin path" true
    (String.equal got want);
  Unix.close fd;
  Sv.shutdown server;
  Thread.join th

(* A peer that never ends its line: refused at the 1 MiB cap with err
   and bye, and closed, while another client's payments do not move. *)
let test_oversize_line () =
  let dg = random_digraph 42 ~n:24 in
  let path = socket_path "oversize" in
  let server =
    Sv.create (Sv.Unix_path path) [| W.make ~root:0 (`Link (copy_digraph dg)) |]
  in
  let th = Thread.create Sv.serve server in
  let fd2, ic2, oc2 = connect path in
  ignore (input_line ic2);
  let before = pay_lines ic2 oc2 in
  let fd, ic, _ = connect path in
  ignore (input_line ic);
  (* 2 MiB, no newline; the server stops reading at the cap, so the
     writer runs on its own thread and ends on the close *)
  let writer =
    Thread.create
      (fun () ->
        let chunk = Bytes.make 65536 'a' in
        try
          for _ = 1 to 32 do
            write_all fd chunk 0 65536
          done
        with Unix.Unix_error _ -> ())
      ()
  in
  Alcotest.(check string) "refused with a reason" "err line too long"
    (input_line ic);
  Alcotest.(check string) "then dismissed" "bye" (input_line ic);
  (match input_line ic with
  | exception (End_of_file | Sys_error _) -> ()
  | l -> Alcotest.failf "expected the connection closed, got %S" l);
  Thread.join writer;
  Unix.close fd;
  Alcotest.(check (list string)) "the other client's payments are unchanged"
    before (pay_lines ic2 oc2);
  send oc2 "quit";
  Alcotest.(check string) "other client still answered" "bye" (input_line ic2);
  Unix.close fd2;
  Sv.shutdown server;
  Thread.join th

(* The published request count, once it has not moved for 0.1 s.  On
   a loaded host that may come early; the checks below are bounds that
   hold whenever the count is read. *)
let settled_requests server =
  let rec go last stable tries =
    Thread.delay 0.02;
    let r = (Sv.stats server).Sv.requests in
    if r = last && stable >= 5 then r
    else if tries = 0 then Alcotest.fail "server never settled"
    else go r (if r = last then stable + 1 else 0) (tries - 1)
  in
  go (-1) 0 500

(* A client that has read its greeting and reads nothing more. *)
let stalled_client path =
  let fd = connect_fd path in
  ignore (read_line_fd fd);
  fd

let send_pays fd k =
  let pays = String.concat "" (List.init k (fun _ -> "pay\n")) in
  write_all fd (Bytes.of_string pays) 0 (String.length pays)

(* More pays than the output cap plus whatever the kernel may hold
   between the two ends (at most 2 x SO_SNDBUF; 4 x for room), so a
   server that never pauses would answer them all. *)
let pays_past_cap fd reply =
  ((P.max_line + (4 * Unix.getsockopt_int fd Unix.SO_SNDBUF))
  / String.length reply)
  + 50

(* A client that pipelines pays past the cap and reads nothing: its
   shard holds at most the output cap plus one reply, serves a second
   client meanwhile, and then delivers every reply in order. *)
let test_stalled_reader () =
  let dg0 = random_digraph 7 ~n:60 and dg1 = random_digraph 42 ~n:24 in
  let path = socket_path "stalled" in
  let server =
    Sv.create (Sv.Unix_path path)
      [|
        W.make ~root:0 (`Link (copy_digraph dg0));
        W.make ~root:0 (`Link (copy_digraph dg1));
      |]
  in
  let th = Thread.create Sv.serve server in
  let reply = stdin_bytes (P.handle (W.make ~root:0 (`Link dg0)) P.Pay) in
  let fd = stalled_client path in
  let pays = pays_past_cap fd reply in
  send_pays fd pays;
  let kernel = 2 * Unix.getsockopt_int fd Unix.SO_SNDBUF in
  let check_held what answered =
    let held = (answered * String.length reply) - kernel in
    Alcotest.(check bool)
      (Printf.sprintf "%s: output held at the cap (%d of %d pays answered, %d B each)"
         what answered pays (String.length reply))
      true
      (answered < pays && held <= P.max_line + String.length reply)
  in
  check_held "paused" (settled_requests server);
  (* a second client, on the other session, is served meanwhile *)
  let fd2, ic2, oc2 = connect path in
  ignore (input_line ic2);
  send oc2 "session 1";
  ignore (input_line ic2);
  let mirror = W.make ~root:0 (`Link (copy_digraph dg1)) in
  let links = Array.of_list (Digraph.links dg1) in
  for i = 0 to 3 do
    let u, v, _ = links.(i) in
    let r = P.Cost_link { u; v; w = 2.0 +. float_of_int i } in
    send oc2 (P.print_request r);
    Alcotest.(check string) "second client's edit acked"
      (Proto_ref.print_response (List.hd (P.handle mirror r)))
      (input_line ic2)
  done;
  Alcotest.(check string) "second client's payments = stdin path"
    (stdin_bytes (P.handle mirror P.Pay))
    (String.concat "" (List.map (fun l -> l ^ "\n") (pay_lines ic2 oc2)));
  send oc2 "quit";
  ignore (input_line ic2);
  Unix.close fd2;
  (* session 1, four edits, pay and quit: 7 requests of the second client *)
  check_held "still paused" (settled_requests server - 7);
  let got = read_exactly fd (pays * String.length reply) in
  Alcotest.(check bool) "every reply in order, byte-identical to stdin" true
    (String.equal got (String.concat "" (List.init pays (fun _ -> reply))));
  write_all fd (Bytes.of_string "quit\n") 0 5;
  Alcotest.(check string) "then quit" "bye" (read_line_fd fd);
  Unix.close fd;
  Sv.shutdown server;
  Thread.join th

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* With an idle timeout, two clients stall past the limit: one paused
   over the output cap with requests still buffered, one under the cap
   with output the kernel would not take.  The shard does not spin on
   them, a third client is served meanwhile, and once each reads it
   gets every reply, then [err idle timeout] and [bye]. *)
let test_stalled_reader_idle () =
  let limit = 0.5 in
  let dg = random_digraph 7 ~n:60 in
  let path = socket_path "stalled-idle" in
  let server =
    Sv.create ~idle_timeout:limit (Sv.Unix_path path)
      [| W.make ~root:0 (`Link (copy_digraph dg)) |]
  in
  let th = Thread.create Sv.serve server in
  let reply = stdin_bytes (P.handle (W.make ~root:0 (`Link dg)) P.Pay) in
  let fda = stalled_client path in
  let pays_a = pays_past_cap fda reply in
  send_pays fda pays_a;
  (* past what the kernel takes, well under the cap at the usual
     socket buffer sizes (paused too otherwise: it ends the same) *)
  let fdb = stalled_client path in
  let pays_b =
    (2 * Unix.getsockopt_int fdb Unix.SO_SNDBUF / String.length reply) + 10
  in
  send_pays fdb pays_b;
  ignore (settled_requests server);
  Thread.delay (2.0 *. limit);
  let cpu0 = cpu_seconds () in
  Thread.delay 1.0;
  let cpu = cpu_seconds () -. cpu0 in
  Alcotest.(check bool)
    (Printf.sprintf "no spin on stalled clients (%.3f s CPU in 1 s)" cpu)
    true (cpu < 0.5);
  let fdc, icc, occ = connect path in
  ignore (input_line icc);
  Alcotest.(check string) "third client's payments = stdin path" reply
    (String.concat "" (List.map (fun l -> l ^ "\n") (pay_lines icc occ)));
  send occ "quit";
  Alcotest.(check string) "third client done" "bye" (input_line icc);
  Unix.close fdc;
  let finish what fd k =
    let got = read_exactly fd (k * String.length reply) in
    Alcotest.(check bool)
      (what ^ ": every reply in order, byte-identical to stdin")
      true
      (String.equal got (String.concat "" (List.init k (fun _ -> reply))));
    Alcotest.(check string) (what ^ ": then told why") "err idle timeout"
      (read_line_fd fd);
    Alcotest.(check string) (what ^ ": then dismissed") "bye" (read_line_fd fd);
    expect_eof_fd fd (what ^ ": closed");
    Unix.close fd
  in
  finish "paused client" fda pays_a;
  finish "closing client" fdb pays_b;
  Sv.shutdown server;
  Thread.join th

(* ------- real client exe: replies past the server's output pause ------- *)

(* The paper's served instance: a connected 200-node UDG in the
   2000 m square, 300 m range, as a link-model digraph. *)
let paper_udg () =
  let rng = Wnet_prng.Rng.create 1 in
  match
    Wnet_topology.Udg.generate_connected rng
      ~region:Wnet_geom.Region.paper_region ~n:200 ~range:300.0 ~max_tries:1000
  with
  | Some u ->
    Wnet_topology.Udg.link_graph u ~model:(Wnet_geom.Power.path_loss_only ~kappa:2.0)
  | None -> Alcotest.fail "no connected UDG"

(* [exe args] with stdin read from the file [input]: its whole stdout
   and exit status, or a failure, after killing it, if it has not
   closed stdout within [timeout] seconds. *)
let run_exe_timed ~timeout exe args ~input =
  let inp = Unix.openfile input [ Unix.O_RDONLY ] 0 in
  let out_r, out_w = Unix.pipe () in
  Unix.set_close_on_exec out_r;
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) inp out_w Unix.stderr in
  Unix.close inp;
  Unix.close out_w;
  let out = Buffer.create (1 lsl 20) and chunk = Bytes.create 65536 in
  let deadline = Unix.gettimeofday () +. timeout in
  let rec pump () =
    let left = deadline -. Unix.gettimeofday () in
    left > 0.0
    &&
    match Unix.select [ out_r ] [] [] left with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> pump ()
    | [], _, _ -> false
    | _ -> (
      match Unix.read out_r chunk 0 (Bytes.length chunk) with
      | 0 -> true
      | n ->
        Buffer.add_subbytes out chunk 0 n;
        pump ())
  in
  let closed = pump () in
  Unix.close out_r;
  if not closed then begin
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    Alcotest.failf "%s: stdout still open after %.0f s (%d bytes read)"
      (String.concat " " args) timeout (Buffer.length out)
  end;
  let _, status = Unix.waitpid [] pid in
  (Buffer.contents out, status)

let pay_lines_of out =
  List.filter
    (fun l -> String.starts_with ~prefix:"src " l || String.starts_with ~prefix:"ok served=" l)
    (String.split_on_char '\n' out)

(* A pipelined transcript whose replies pass the server's 1 MiB output
   pause, through `client --proto 2` and through `client`, one
   connection each: rounds of 32 re-declared costs and a pay, until the
   requests, as text and as frames, fill the kernel's buffers between
   the two ends several times over, and the replies pass the pause just
   as far.  A client that blocks in a write while the server is paused
   on its unread replies never finishes.  Each leg's pay lines must be
   those of `unicast serve` on the same transcript. *)
let test_client_past_output_pause () =
  match client_exe () with
  | None -> Alcotest.fail "client exe not built (expected ../bin/unicast.exe)"
  | Some exe ->
    let g = paper_udg () in
    let links = Array.of_list (Digraph.links g) in
    let rng = Wnet_prng.Rng.create 23 in
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let kernel = 4 * Unix.getsockopt_int probe Unix.SO_SNDBUF in
    Unix.close probe;
    let round () =
      List.init 32 (fun _ ->
          let u, v, _ = links.(Wnet_prng.Rng.int rng (Array.length links)) in
          P.Cost_link { u; v; w = Wnet_prng.Rng.float_range rng 1.0 10.0 })
      @ [ P.Pay ]
    in
    let frame_bytes rs =
      let e = Wnet_proto_bin.enc_create () in
      Wnet_proto_bin.encode_requests e rs;
      Wnet_proto_bin.enc_pending e
    in
    let text_bytes rs =
      List.fold_left (fun a r -> a + String.length (P.print_request r) + 1) 0 rs
    in
    let reply = String.length (stdin_bytes (P.handle (W.make ~root:0 (`Link g)) P.Pay)) in
    let rec rounds acc ~text ~frames ~replies =
      if text < kernel || frames < kernel || replies < P.max_line + kernel then
        let r = round () in
        rounds (r :: acc) ~text:(text + text_bytes r) ~frames:(frames + frame_bytes r)
          ~replies:(replies + reply)
      else List.rev acc
    in
    let rounds = rounds [] ~text:0 ~frames:0 ~replies:0 in
    let write_file lines =
      let f = Filename.temp_file "wnet-pause" ".txt" in
      let oc = open_out f in
      List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
      close_out oc;
      f
    in
    let transcript =
      List.map P.print_request (List.concat rounds) @ [ "quit" ]
    in
    let graph =
      write_file
        (List.map (fun (u, v, w) -> Printf.sprintf "link %d %d %.17g" u v w) (Digraph.links g))
    in
    let input = write_file transcript in
    let input1 = write_file ("session 1" :: transcript) in
    let path = socket_path "pause" in
    let server =
      Sv.create (Sv.Unix_path path)
        [| W.make ~root:0 (`Link (copy_digraph g)); W.make ~root:0 (`Link (copy_digraph g)) |]
    in
    let th = Thread.create Sv.serve server in
    Fun.protect
      ~finally:(fun () ->
        Sv.shutdown server;
        Thread.join th;
        List.iter Sys.remove [ graph; input; input1 ])
      (fun () ->
        let leg what args ~input =
          let out, status = run_exe_timed ~timeout:60.0 exe args ~input in
          (match status with
          | Unix.WEXITED 0 -> ()
          | _ -> Alcotest.failf "%s: exited non-zero" what);
          pay_lines_of out
        in
        let want = leg "serve" [ "serve"; "--model"; "link"; graph ] ~input in
        Alcotest.(check int) "every pay answered on stdin" (List.length rounds)
          (List.length (List.filter (String.starts_with ~prefix:"ok served=") want));
        Alcotest.(check (list string)) "client --proto 2: pay lines = serve" want
          (leg "client --proto 2" [ "client"; "--socket"; path; "--proto"; "2" ] ~input);
        Alcotest.(check (list string)) "client: pay lines = serve" want
          (leg "client" [ "client"; "--socket"; path ] ~input:input1))

let suite =
  [
    Alcotest.test_case "socket smoke: greet, pay, quit" `Quick test_smoke;
    Alcotest.test_case "4 concurrent clients, bit-identical payments" `Quick
      test_concurrent_clients;
    Alcotest.test_case "mixed proto=1/proto=2 clients, bit-identical" `Quick
      test_mixed_proto;
    Alcotest.test_case "corrupt binary frame answered err+bye" `Quick
      test_corrupt_frame_closes;
    Alcotest.test_case "client --batch flushes trailing pack on EOF" `Quick
      test_client_batch_eof;
    Alcotest.test_case "idle clients are disconnected" `Quick
      test_idle_disconnect;
    Alcotest.test_case "graceful shutdown drains and says bye" `Quick
      test_shutdown_drains;
    Alcotest.test_case "multi-shard payments bit-identical at 1/2/4 shards"
      `Quick test_multi_shard_determinism;
    Alcotest.test_case "cross-shard attach carries buffered requests" `Quick
      test_attach_pipelining;
    Alcotest.test_case "shutdown drains every shard" `Quick
      test_shard_shutdown_drains;
    Alcotest.test_case "batch --verify-responses client vs 2-shard server"
      `Quick test_client_batch_verify_sharded;
    Alcotest.test_case "4096-line pipelined burst = stdin path" `Quick
      test_pipelined_burst;
    Alcotest.test_case "line over 1 MiB: err, bye, close; others unchanged"
      `Quick test_oversize_line;
    Alcotest.test_case "stalled reader paused at the output cap" `Quick
      test_stalled_reader;
    Alcotest.test_case "stalled readers past the idle limit: replies, then bye"
      `Quick test_stalled_reader_idle;
    Alcotest.test_case "client past the output pause = serve, both protos"
      `Quick test_client_past_output_pause;
  ]
