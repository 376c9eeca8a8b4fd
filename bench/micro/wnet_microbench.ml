(* Per-primitive microbenchmarks: one family per hot-path building
   block (wire codecs, work-stealing deque, heaps, dynamic-SSSP
   repair), each primitive a closed loop of [ops] steady-state
   operations over preallocated state.

   The one-exe-per-primitive suite ([bench_proto_encode] & co., via
   {!run_family}) prints human-readable ns/op and words/op (minor and
   direct-major) and hard-asserts that every primitive with a
   [max_words] allocates at most that many minor-heap words per
   operation — ZERO on the steady-state paths (native code only —
   bytecode boxes freely and is exempt).
   [--smoke] runs a single timed rep with no timing gate but keeps the
   allocation assertion: that is what CI runs.

   Primitives must not allocate in their [run] when [max_words] is
   [Some 0.0] —
   measurement overhead ([Gc.minor_words] boxes its float result) is
   amortised over [reps * ops] operations, so the threshold below
   tolerates a few words per *run*, none per op. *)

module P = Wnet_proto
module B = Wnet_proto_bin

type prim = {
  name : string;  (** e.g. "bin/cost-link" — unique within a family *)
  ops : int;  (** operations performed by one [run ()] call *)
  run : unit -> unit;
  max_words : float option;
      (** at most this many minor words per operation: [Some 0.0] is
          the steady-state contract, [None] leaves it unchecked *)
}

let inner_ops = 256

(* A connected paper UDG (2000 m square, 300 m range) on [n] nodes from
   instance seed 1, and the stream it was drawn from. *)
let paper_points ~n =
  let rng = Wnet_prng.Rng.create 1 in
  match
    Wnet_topology.Udg.generate_connected rng
      ~region:Wnet_geom.Region.paper_region ~n ~range:300.0 ~max_tries:1000
  with
  | Some u -> (rng, u)
  | None -> failwith "microbench: no connected UDG"

(* As a link-model digraph (kappa = 2).  At n = 200 it is the instance
   the served link benchmark uses. *)
let paper_udg ~n =
  Wnet_topology.Udg.link_graph (snd (paper_points ~n))
    ~model:(Wnet_geom.Power.path_loss_only ~kappa:2.0)

(* As a node-model graph, costs U[1, 10) drawn next from the same
   stream.  At n = 600 it is the instance the served node benchmark
   uses. *)
let paper_node_udg ~n =
  let rng, u = paper_points ~n in
  Wnet_topology.Udg.node_graph u
    ~costs:(Wnet_topology.Udg.uniform_node_costs rng ~n ~lo:1.0 ~hi:10.0)

(* ---------------- proto encode ---------------- *)

(* The pay view the served link workload renders: every source of the
   n = 200 paper UDG, with its path and charge.  Nothing pays the
   session again, so the view stays as it is. *)
let pay_view () =
  let (module S : Wnet_session.S) =
    Wnet_session.make ~root:0 (`Link (paper_udg ~n:200))
  in
  S.pay ()

(* Plain recursion over boxed floats: a float read from a float array
   would be boxed again to be passed. *)
let rec put_floats e = function
  | [] -> ()
  | x :: rest ->
    P.put_float e x;
    put_floats e rest

let proto_encode () =
  let enc = B.enc_create () in
  let cost = P.Cost_link { u = 17; v = 23; w = 4.625 } in
  let drain () = B.enc_consume enc (B.enc_pending enc) in
  let edit_batch = List.init 16 (fun i -> P.Cost_link { u = i; v = i + 1; w = 0.5 +. float_of_int i }) in
  let served =
    P.Served { src = 41; path = [ 41; 17; 3; 0 ]; charge = 12.125 }
  in
  (* A pay reply as the served link workload sees it: an 11-hop path
     and a charge that needs all 17 significant digits. *)
  let served_text =
    P.Served
      {
        src = 187;
        path = [ 187; 142; 96; 151; 33; 78; 120; 9; 64; 171; 25; 0 ];
        charge = 4.0e4 /. 3.0;
      }
  in
  let view = pay_view () in
  let reply_lines = view.count + 1 in
  (* Every charge one ulp up, so that every line misses the memo; a
     zero charge (a source next to the root) flips to -0.0 instead,
     which misses too and is written directly, as 0 is: one ulp above
     0 is a subnormal, which no session serves. *)
  let view_ulp =
    { view with
      charge =
        Array.map (fun c -> if c = 0.0 then -0.0 else Float.succ c) view.charge }
  in
  (* The served charges the exact path writes: the reply's, but 0. *)
  let charges =
    List.filter (fun c -> c <> 0.0) (Array.to_list (Array.sub view.charge 0 view.count))
  in
  let text = P.enc_create () in
  let fresh_memo = P.memo_create () and hit_memo = P.memo_create () in
  let text_drain () = P.enc_consume text (P.enc_pending text) in
  [
    {
      name = "bin/cost-link";
      ops = inner_ops;
      max_words = Some 0.0;
      run =
        (fun () ->
          for _ = 1 to inner_ops do
            B.encode_request enc cost;
            drain ()
          done);
    };
    {
      name = "bin/pay";
      ops = inner_ops;
      max_words = Some 0.0;
      run =
        (fun () ->
          for _ = 1 to inner_ops do
            B.encode_request enc P.Pay;
            drain ()
          done);
    };
    {
      name = "bin/batch-16-edits";
      ops = inner_ops;
      max_words = Some 0.0;
      run =
        (fun () ->
          (* 16 messages per frame, inner_ops/16 frames *)
          for _ = 1 to inner_ops / 16 do
            B.encode_requests enc edit_batch;
            drain ()
          done);
    };
    {
      name = "bin/served";
      ops = inner_ops;
      max_words = None (* path list is walked, frame grows per hop *);
      run =
        (fun () ->
          for _ = 1 to inner_ops do
            B.encode_response enc served;
            drain ()
          done);
    };
    {
      name = "text/cost-link";
      ops = inner_ops;
      max_words = None (* Printf builds a fresh string per line *);
      run =
        (fun () ->
          for _ = 1 to inner_ops do
            ignore (Sys.opaque_identity (P.print_request cost))
          done);
    };
    {
      name = "text/served";
      ops = inner_ops;
      max_words = None (* one string per reply line *);
      run =
        (fun () ->
          for _ = 1 to inner_ops do
            ignore (Sys.opaque_identity (P.print_response served_text))
          done);
    };
    (* A real pay reply (ns per line, its closing ok line included),
       rendered from the pay view into an encoder through a memo, as
       the server renders it.  [fresh] alternates the view with a copy
       whose charges all moved, so every src line misses the memo and
       is printed; [memo-hit] renders the same view again, as a pay
       after a burst that moved no charge does.  Each drain hands the
       scratch back to 4 KiB, as the server's does, so each run also
       grows it again: a few major-heap blocks, no minor words. *)
    {
      name = "text/pay-reply/fresh";
      ops = 2 * reply_lines;
      max_words = Some 0.0;
      run =
        (fun () ->
          P.encode_pay text fresh_memo view;
          text_drain ();
          P.encode_pay text fresh_memo view_ulp;
          text_drain ());
    };
    {
      name = "text/pay-reply/memo-hit";
      ops = reply_lines;
      max_words = Some 0.0;
      run =
        (fun () ->
          P.encode_pay text hit_memo view;
          text_drain ());
    };
    (* The float writer alone, over the reply's nonzero charges: its
       exact path, 17 digits written in place. *)
    {
      name = "text/float";
      ops = List.length charges;
      max_words = Some 0.0;
      run =
        (fun () ->
          put_floats text charges;
          text_drain ());
    };
  ]

(* ---------------- proto decode ---------------- *)

let frame_of_requests rs =
  let e = B.enc_create () in
  B.encode_requests e rs;
  Bytes.sub (B.enc_buffer e) (B.enc_offset e) (B.enc_pending e)

(* A k-line pipelined edit burst arriving in one read, split into its
   lines (ns per line): the cost must not grow with k.  Each run splits
   4096 lines, in bursts of k, so every row is well above the timer's
   resolution. *)
let text_burst k =
  let burst =
    String.concat ""
      (List.init k (fun i ->
           P.print_request
             (P.Cost_link
                { u = i mod 200; v = (i * 7) mod 200; w = 0.5 +. float_of_int i })
           ^ "\n"))
  in
  let dec = P.dec_create () in
  let sink = ref 0 in
  let rec take () =
    match P.next_line dec with
    | `Line l ->
      sink := !sink + String.length l;
      take ()
    | `Need_more -> ()
    | `Too_long -> failwith "microbench: line too long"
  in
  let bursts = 4096 / k in
  {
    name = Printf.sprintf "text/burst-%d" k;
    ops = bursts * k;
    max_words = None (* one string per line *);
    run =
      (fun () ->
        for _ = 1 to bursts do
          P.dec_feed_string dec burst 0 (String.length burst);
          take ()
        done);
  }

let proto_decode () =
  let cost = P.Cost_link { u = 17; v = 23; w = 4.625 } in
  let cost_frame = frame_of_requests [ cost ] in
  let batch_frame =
    frame_of_requests
      (List.init 16 (fun i -> P.Cost_link { u = i; v = i + 1; w = 0.5 +. float_of_int i }))
  in
  let cost_line = P.print_request cost in
  let dec = B.dec_create () in
  let view = B.make_view () in
  let sink = ref 0 in
  let decode_frame frame k =
    B.dec_feed dec frame 0 (Bytes.length frame);
    for _ = 1 to k do
      match B.decode_next dec view with
      | `Msg -> sink := !sink + view.B.i0 + view.B.i1
      | `Need_more | `Corrupt _ -> failwith "microbench: bad frame"
    done
  in
  [
    {
      name = "bin/view/cost-link";
      ops = inner_ops;
      max_words = Some 0.0;
      run =
        (fun () ->
          for _ = 1 to inner_ops do
            decode_frame cost_frame 1
          done);
    };
    {
      name = "bin/view/batch-16-edits";
      ops = inner_ops;
      max_words = Some 0.0;
      run =
        (fun () ->
          for _ = 1 to inner_ops / 16 do
            decode_frame batch_frame 16
          done);
    };
    {
      name = "bin/materialize/cost-link";
      ops = inner_ops;
      max_words = None (* builds the Wnet_proto.request value *);
      run =
        (fun () ->
          for _ = 1 to inner_ops do
            B.dec_feed dec cost_frame 0 (Bytes.length cost_frame);
            match B.decode_request dec view with
            | `Req _ -> ()
            | `Need_more | `Corrupt _ -> failwith "microbench: bad frame"
          done);
    };
    {
      name = "text/cost-link";
      ops = inner_ops;
      max_words = None;
      run =
        (fun () ->
          for _ = 1 to inner_ops do
            match P.parse_request cost_line with
            | Ok _ -> ()
            | Error _ -> failwith "microbench: bad line"
          done);
    };
  ]
  @ List.map text_burst [ 16; 256; 4096 ]

(* ---------------- work-stealing deque ---------------- *)

let deque () =
  let q = Wnet_par.Deque.create 4096 in
  [
    {
      name = "push-pop";
      ops = inner_ops * 2;
      max_words = None (* each push boxes its cell *);
      run =
        (fun () ->
          for i = 1 to inner_ops do
            ignore (Wnet_par.Deque.push q i)
          done;
          for _ = 1 to inner_ops do
            ignore (Sys.opaque_identity (Wnet_par.Deque.pop q))
          done);
    };
    {
      name = "push-steal";
      ops = inner_ops * 2;
      max_words = None;
      run =
        (fun () ->
          for i = 1 to inner_ops do
            ignore (Wnet_par.Deque.push q i)
          done;
          for _ = 1 to inner_ops do
            ignore (Sys.opaque_identity (Wnet_par.Deque.steal q))
          done);
    };
  ]

(* ---------------- heaps ---------------- *)

let heap () =
  let pri = Array.init inner_ops (fun i -> float_of_int ((i * 7919) mod 1009)) in
  let bh = Wnet_graph.Binheap.create () in
  let ih = Wnet_graph.Indexed_heap.create inner_ops in
  let th = Wnet_graph.Indexed_heap.create inner_ops in
  [
    {
      name = "binheap/push-pop";
      ops = inner_ops * 2;
      max_words = None (* float keys are boxed in the heap cells *);
      run =
        (fun () ->
          for i = 0 to inner_ops - 1 do
            Wnet_graph.Binheap.push bh pri.(i) i
          done;
          for _ = 1 to inner_ops do
            ignore (Sys.opaque_identity (Wnet_graph.Binheap.pop_min bh))
          done);
    };
    {
      name = "indexed-heap/insert-pop";
      ops = inner_ops * 2;
      max_words = None (* storage is flat, but pop_min returns a tuple *);
      run =
        (fun () ->
          for i = 0 to inner_ops - 1 do
            Wnet_graph.Indexed_heap.insert ih i pri.(i)
          done;
          for _ = 1 to inner_ops do
            ignore (Wnet_graph.Indexed_heap.pop_min ih)
          done);
    };
    (* the kernels' path: priorities written through [prios], ordered by
       [touch] (every key inserted, then lowered once), popped by key:
       a float boxed in a sift fails the allocation assertion *)
    {
      name = "indexed-heap/touch-pop";
      ops = inner_ops * 3;
      max_words = Some 0.0;
      run =
        (fun () ->
          let prio = Wnet_graph.Indexed_heap.prios th in
          for i = 0 to inner_ops - 1 do
            prio.(i) <- pri.(i);
            Wnet_graph.Indexed_heap.touch th i
          done;
          for i = 0 to inner_ops - 1 do
            prio.(i) <- pri.(i) *. 0.5;
            Wnet_graph.Indexed_heap.touch th i
          done;
          for _ = 1 to inner_ops do
            ignore (Sys.opaque_identity (Wnet_graph.Indexed_heap.pop_min_key th))
          done);
    };
  ]

(* ---------------- CSR Dijkstra kernels ---------------- *)

let bench_digraph ~n ~seed =
  let rng = Wnet_prng.Rng.create seed in
  let links = ref [] in
  let p = 4.0 /. float_of_int n in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && Wnet_prng.Rng.bernoulli rng p then
        links := (u, v, Wnet_prng.Rng.float_range rng 1.0 10.0) :: !links
    done
  done;
  Wnet_graph.Digraph.create ~n ~links:!links

let bench_graph ~n ~seed =
  let rng = Wnet_prng.Rng.create seed in
  let costs = Array.init n (fun _ -> Wnet_prng.Rng.float_range rng 0.5 5.0) in
  let edges = ref (List.init n (fun v -> (v, (v + 1) mod n))) in
  for _ = 1 to 2 * n do
    let u = Wnet_prng.Rng.int rng n and v = Wnet_prng.Rng.int rng n in
    if u <> v then edges := (u, v) :: !edges
  done;
  Wnet_graph.Graph.create ~costs ~edges:!edges

(* Full single-source runs: the CSR scratch kernels must be exactly
   zero-allocation (ban-mask bytes, key-only pops, result left in the
   scratch). *)
let dijkstra () =
  let n = 256 in
  let dg = bench_digraph ~n ~seed:11 in
  let ng = bench_graph ~n ~seed:12 in
  let s = Wnet_graph.Dijkstra.make_scratch n in
  (* materialize the cached view so run one isn't charged the build *)
  ignore (Wnet_graph.Digraph.csr dg);
  let reps = 32 in
  [
    {
      name = Printf.sprintf "csr/link-scratch/n=%d" n;
      ops = reps;
      max_words = Some 0.0;
      run =
        (fun () ->
          for _ = 1 to reps do
            ignore
              (Sys.opaque_identity (Wnet_graph.Dijkstra.link_weighted_scratch s dg 0))
          done);
    };
    {
      name = Printf.sprintf "csr/node-scratch/n=%d" n;
      ops = reps;
      max_words = Some 0.0;
      run =
        (fun () ->
          for _ = 1 to reps do
            ignore
              (Sys.opaque_identity
                 (Wnet_graph.Dijkstra.node_weighted_scratch s ng ~source:0))
          done);
    };
  ]

(* The tree solvers ([link_weighted], [node_weighted]) return fresh
   [dist] and [parent] arrays and build their own heap per run, so they
   cannot be allocation-free; the rows come with the words a run costs —
   the tree record, its two arrays, the heap record and its four arrays
   — and {!check_alloc_at_most} holds each run to exactly that: no boxed
   priority per heap update, no closure per run.  The session engines
   and every one-shot batch run these once per tree.  At [n = 256] each
   array is 256 words, the largest the minor heap takes. *)
let tree_solvers () =
  let n = 256 in
  let dg = bench_digraph ~n ~seed:11 in
  let ng = bench_graph ~n ~seed:12 in
  ignore (Wnet_graph.Digraph.csr dg);
  let words = float_of_int ((6 * (n + 1)) + 6 + 4) in
  let reps = 32 in
  ( [
      {
        name = Printf.sprintf "tree/link-weighted/n=%d" n;
        ops = reps;
        max_words = None;
        run =
          (fun () ->
            for _ = 1 to reps do
              ignore (Sys.opaque_identity (Wnet_graph.Dijkstra.link_weighted dg 0))
            done);
      };
      {
        name = Printf.sprintf "tree/node-weighted/n=%d" n;
        ops = reps;
        max_words = None;
        run =
          (fun () ->
            for _ = 1 to reps do
              ignore
                (Sys.opaque_identity (Wnet_graph.Dijkstra.node_weighted ng ~source:0))
            done);
      };
    ],
    words )

(* ---------------- avoidance sweeps ---------------- *)

(* The full-graph avoidance sweep, the yardstick the tests hold the
   region-only kernel to: one forbidden-node Dijkstra per relay, each
   setting one ban byte and clearing it after. *)
let avoid () =
  let n = 256 in
  let dg = bench_digraph ~n ~seed:13 in
  let s = Wnet_graph.Dijkstra.make_scratch n in
  ignore (Wnet_graph.Digraph.csr dg);
  let ban = Wnet_graph.Dijkstra.ban_mask s in
  let reps = 32 in
  [
    {
      name = Printf.sprintf "csr/ban-mask-sweep/n=%d" n;
      ops = reps;
      max_words = Some 0.0;
      run =
        (fun () ->
          for k = 1 to reps do
            Bytes.set ban k '\001';
            ignore
              (Sys.opaque_identity (Wnet_graph.Dijkstra.link_weighted_scratch s dg 0));
            Bytes.set ban k '\000'
          done);
    };
  ]

(* The subtree-bounded avoidance kernel against the full-graph sweep it
   replaces: same relay set (internal nodes of the shared SPT), same
   searched graph, preallocated index/scratch/dist.  The bounded path
   is the session's per-relay hot loop and must allocate NOTHING — the
   result is an immediate int and the caller owns the dist buffer. *)
let avoid_region () =
  let n = 256 in
  let dg = bench_digraph ~n ~seed:13 in
  let mirror = Wnet_graph.Digraph.reverse dg in
  ignore (Wnet_graph.Digraph.csr dg);
  ignore (Wnet_graph.Digraph.csr mirror);
  let tree = Wnet_graph.Dijkstra.link_weighted dg 0 in
  let idx = Wnet_graph.Avoid_region.make_index tree in
  let ds = Wnet_graph.Dynamic_sssp.make_dist_scratch n in
  let s = Wnet_graph.Dijkstra.make_scratch n in
  let ban = Wnet_graph.Dijkstra.ban_mask s in
  let d = Array.make n infinity in
  let internal = Array.make n false in
  Array.iteri
    (fun _ p -> if p > 0 then internal.(p) <- true)
    tree.Wnet_graph.Dijkstra.parent;
  let relays =
    Array.of_list
      (List.filter (fun k -> internal.(k)) (List.init n (fun k -> k)))
  in
  let reps = min 32 (Array.length relays) in
  [
    {
      name = Printf.sprintf "bounded/subtree-sweep/n=%d" n;
      ops = reps;
      max_words = Some 0.0;
      run =
        (fun () ->
          for i = 0 to reps - 1 do
            let r =
              Wnet_graph.Avoid_region.link_avoid ds idx ~graph:dg
                ~mirror ~tree ~avoid:relays.(i) ~dist:d
            in
            assert (r >= 0)
          done);
    };
    {
      name = Printf.sprintf "full/ban-mask-sweep/n=%d" n;
      ops = reps;
      max_words = Some 0.0;
      run =
        (fun () ->
          for i = 0 to reps - 1 do
            let k = relays.(i) in
            Bytes.set ban k '\001';
            ignore
              (Sys.opaque_identity
                 (Wnet_graph.Dijkstra.link_weighted_scratch s dg 0));
            Bytes.set ban k '\000'
          done);
    };
  ]

(* ---------------- dynamic-SSSP distance repair ---------------- *)

(* The repair and refill rows below time the two ways the session
   flush policy can bring a touched avoidance array up to date, on the
   paper UDG, over hot data.  The policy's cost constants (Avoid_cache)
   are fitted to the calls a session makes instead: there a rise pair
   costs 2.3 refill nodes and a full-run node 0.8, against 1.3 and 0.4
   in these rows (DESIGN.md, "Cache maintenance"). *)

(* In-budget repairs of the source's distance array after tree links
   rise or fall by 5 %, the drift of the served workload.  Each op
   restores its input first (an n-float blit of the exact pre-edit
   array, and the weights), so every op repairs the same region; the
   restore-only row prices that overhead.  The region (the edited
   links' subtree sizes, summed) is in the row name.  A repair that
   overflowed the budget would time the caller's from-scratch fallback,
   not a repair, so it fails the run. *)
let repair () =
  let open Wnet_graph in
  let g = paper_udg ~n:200 in
  let n = Digraph.n g in
  let mirror = Digraph.reverse g in
  let tree = Dijkstra.link_weighted g 0 in
  let size = (Avoid_region.make_index tree).Avoid_region.size in
  let scratch = Dynamic_sssp.make_dist_scratch n in
  let dist = Array.make n 0.0 in
  let into pred =
    List.filter_map
      (fun v ->
        let p = tree.Dijkstra.parent.(v) in
        if p >= 0 && pred v then Some (p, v) else None)
      (List.init n Fun.id)
  in
  let leaves = into (fun v -> size.(v) = 1) in
  (* the tree link into the largest subtree well inside the budget *)
  let cap = Dynamic_sssp.default_budget n / 2 in
  let wide =
    List.fold_left
      (fun best (p, v) ->
        match best with
        | Some (_, b) when size.(b) >= size.(v) -> best
        | _ when size.(v) <= cap -> Some (p, v)
        | _ -> best)
      None (into (fun _ -> true))
  in
  let set (e : Dynamic_sssp.edit) w =
    Digraph.set_weight g e.u e.v w;
    Digraph.set_weight mirror e.v e.u w
  in
  let reps = 32 in
  let prim name ops run = { name; ops; max_words = None; run } in
  let row dir links =
    let factor = if dir = "rise" then 1.05 else 1.0 /. 1.05 in
    let edits =
      List.map
        (fun (u, v) ->
          let w = Digraph.weight g u v in
          { Dynamic_sssp.u; v; w0 = w; w1 = w *. factor })
        links
    in
    let base = Array.copy tree.Dijkstra.dist in
    let region = List.fold_left (fun a (_, v) -> a + size.(v)) 0 links in
    prim
      (Printf.sprintf "repair-dist/%s/%s/region=%d/n=%d" dir
         (match links with [ _ ] when region = 1 -> "leaf-link" | [ _ ] -> "subtree-link"
          | l -> Printf.sprintf "leaf-links-k=%d" (List.length l))
         region n)
      reps
      (fun () ->
        for _ = 1 to reps do
          Array.blit base 0 dist 0 n;
          List.iter (fun (e : Dynamic_sssp.edit) -> set e e.w1) edits;
          (match
             Dynamic_sssp.repair_dist scratch ~graph:g ~mirror ~source:0 ~dist edits
           with
          | `Patched _ -> ()
          | `Overflow -> failwith "microbench: repair overflowed its budget");
          List.iter (fun (e : Dynamic_sssp.edit) -> set e e.w0) edits
        done)
  in
  (* every tree link the budget admits, rising (falling) in turn, each
     op restoring its input first like the rows above *)
  let link_sweep dir =
    let factor = if dir = "rise" then 1.05 else 1.0 /. 1.05 in
    let base = Array.copy tree.Dijkstra.dist in
    (* screened once: a fall can pull in nodes beyond the head's subtree
       and overflow; those links are left out *)
    let in_budget (e : Dynamic_sssp.edit) =
      Array.blit base 0 dist 0 n;
      set e e.w1;
      let ok =
        match
          Dynamic_sssp.repair_dist scratch ~graph:g ~mirror ~source:0 ~dist [ e ]
        with
        | `Patched _ -> true
        | `Overflow -> false
      in
      set e e.w0;
      ok
    in
    let cases =
      Array.of_list
        (List.filter in_budget
           (List.map
              (fun (u, v) ->
                let w = Digraph.weight g u v in
                { Dynamic_sssp.u; v; w0 = w; w1 = w *. factor })
              (into (fun v -> size.(v) <= cap))))
    in
    let mean =
      Array.fold_left (fun a (e : Dynamic_sssp.edit) -> a + size.(e.v)) 0 cases
      / Array.length cases
    in
    prim
      (Printf.sprintf "repair-dist/%s/tree-link-sweep/links=%d/mean-region=%d/n=%d"
         dir (Array.length cases) mean n)
      (Array.length cases)
      (fun () ->
        Array.iter
          (fun (e : Dynamic_sssp.edit) ->
            Array.blit base 0 dist 0 n;
            set e e.w1;
            (match
               Dynamic_sssp.repair_dist scratch ~graph:g ~mirror ~source:0 ~dist [ e ]
             with
            | `Patched _ -> ()
            | `Overflow -> failwith "microbench: repair overflowed its budget");
            set e e.w0)
          cases)
  in
  let take k l = List.filteri (fun i _ -> i < k) l in
  let leaf = take 1 leaves in
  let restore =
    let e =
      match leaf with
      | [ (u, v) ] -> { Dynamic_sssp.u; v; w0 = Digraph.weight g u v; w1 = 0.0 }
      | _ -> failwith "microbench: no leaf link"
    in
    let base = Array.copy tree.Dijkstra.dist in
    prim (Printf.sprintf "repair-dist/restore-only/n=%d" n) reps (fun () ->
        for _ = 1 to reps do
          Array.blit base 0 dist 0 n;
          set e (e.w0 *. 1.05);
          set e e.w0
        done)
  in
  (* the other branch: one relay's region-only refill, at the smallest
     subtree, the largest an entry repair's budget admits, and the
     largest; allocation free *)
  let idx = Avoid_region.make_index tree in
  let relays =
    List.sort_uniq compare
      (List.filter_map
         (fun v ->
           let p = tree.Dijkstra.parent.(v) in
           if p > 0 then Some p else None)
         (List.init n Fun.id))
  in
  let budget = Dynamic_sssp.default_budget n in
  let pick ?(cap = n) better =
    List.fold_left
      (fun b k -> if size.(k) <= cap && better size.(k) size.(b) then k else b)
      (List.hd relays) relays
  in
  let refill k =
    {
      name = Printf.sprintf "region-refill/subtree=%d/n=%d" size.(k) n;
      ops = reps;
      max_words = Some 0.0;
      run =
        (fun () ->
          for _ = 1 to reps do
            let r =
              Avoid_region.link_fill scratch idx ~graph:g ~mirror ~tree ~avoid:k
                ~dist
            in
            assert (r >= 0)
          done);
    }
  in
  (* every relay refilled in turn, each into its own array, allocated
     as the session allocates it *)
  let own = List.map (fun k -> (k, Array.create_float n)) relays in
  let mean = List.fold_left (fun a k -> a + size.(k)) 0 relays / List.length relays in
  let fill_own (k, d) =
    let r =
      Avoid_region.link_fill scratch idx ~graph:g ~mirror ~tree ~avoid:k ~dist:d
    in
    assert (r >= 0)
  in
  let sweep =
    {
      name =
        Printf.sprintf "region-refill/own-arrays/relays=%d/mean-subtree=%d/n=%d"
          (List.length relays) mean n;
      ops = List.length own;
      max_words = Some 0.0;
      run = (fun () -> List.iter fill_own own);
    }
  in
  (* An in-subtree repair of relay [j]'s entry, driven by one change: a
     5 % rise of a candidate that realises a label in subtree([j]).  The
     change record claims a rise the graph and the tree do not carry, so
     each op runs a rise's closure, wipe, reseed and settle and re-derives
     the labels it started from: the op needs no restore, and allocates
     nothing.  [j] is the relay with such a link whose subtree is
     nearest the mean of those an entry repair's budget admits;
     [boundary] picks a tail outside the subtree (whose tree label rises)
     or inside it (the link's weight rises). *)
  let repairable = List.filter (fun k -> size.(k) <= budget) relays in
  let repairable_mean =
    List.fold_left (fun a k -> a + size.(k)) 0 repairable / List.length repairable
  in
  let subtree_repair ~boundary =
    let entry = Array.make n infinity in
    let ch = Dynamic_sssp.make_changes 1 in
    let { Digraph.row_off; col; wgt } = Digraph.csr mirror in
    let tight j =
      ignore
        (Avoid_region.link_avoid scratch idx ~graph:g ~mirror ~tree
           ~avoid:j ~dist:entry);
      let found = ref None in
      let lo = idx.Avoid_region.pre.(j) in
      for i = lo + 1 to lo + size.(j) - 1 do
        let x = idx.Avoid_region.order.(i) in
        for e = row_off.(x) to row_off.(x + 1) - 1 do
          let p = col.(e) in
          let out = p <> j && not (Avoid_region.inside idx j p) in
          if
            !found = None && out = boundary && p <> j && entry.(p) < infinity
            && Float.equal (entry.(p) +. wgt.(e)) entry.(x)
          then found := Some (p, x, wgt.(e))
        done
      done;
      !found
    in
    let j, (p, x, w) =
      List.fold_left
        (fun best k ->
          match (best, tight k) with
          | Some (b, _), Some l
            when abs (size.(k) - repairable_mean) < abs (size.(b) - repairable_mean) ->
            Some (k, l)
          | None, Some l -> Some (k, l)
          | _ -> best)
        None repairable
      |> Option.get
    in
    ignore (tight j);
    let label = entry.(p) in
    ch.Dynamic_sssp.tail.(0) <- p;
    ch.Dynamic_sssp.head.(0) <- x;
    ch.Dynamic_sssp.before.(0) <- label +. w;
    ch.Dynamic_sssp.after.(0) <-
      (if boundary then (label *. 1.05) +. w else label +. (w *. 1.05));
    ch.Dynamic_sssp.len <- 1;
    let region =
      Avoid_region.link_repair scratch idx ~graph:g ~mirror ~tree ~avoid:j
        ~dist:entry ch ~first:0 ~last:1
    in
    {
      name =
        Printf.sprintf "subtree-repair/%s/subtree=%d/region=%d/n=%d"
          (if boundary then "boundary-label" else "inner-edit")
          (size.(j) - 1) region n;
      ops = reps;
      max_words = Some 0.0;
      run =
        (fun () ->
          for _ = 1 to reps do
            let r =
              Avoid_region.link_repair scratch idx ~graph:g ~mirror ~tree ~avoid:j
                ~dist:entry ch ~first:0 ~last:1
            in
            assert (r >= 0)
          done);
    }
  in
  [ restore; row "rise" leaf; row "fall" leaf ]
  @ (match wide with
    | Some l -> [ row "rise" [ l ]; row "fall" [ l ] ]
    | None -> [])
  @ [
      link_sweep "rise";
      link_sweep "fall";
      row "rise" (take 8 leaves);
      row "fall" (take 8 leaves);
      subtree_repair ~boundary:true;
      subtree_repair ~boundary:false;
      refill (pick ( < ));
      refill (pick ~cap:budget ( > ));
    ]
  @ (if size.(pick ( > )) > budget then [ refill (pick ( > )) ] else [])
  @ [ sweep ]

(* ---------------- digraph construction and edits ---------------- *)

(* The paths every topology pays once: [create] from a link list (how
   Graph_io and Udg build graphs), [reverse] (the root-ward graph every
   payment batch and link session searches), [links] (how instances are
   written out) and [copy] (how a session takes its graph), on paper
   UDGs; these build graphs, so they allocate by design.  Then the
   in-place edits: a weight update of a present link, hard-asserted at
   0 words per call (its weights are boxed once, in the tuples, as a
   decoded delta's are); a single-link insert and delete, each a
   rebuild; and the one-merge attach of a node's whole link set with
   the one-merge delete of the same links. *)
let graph () =
  let module D = Wnet_graph.Digraph in
  List.concat_map
    (fun n ->
      let g = paper_udg ~n in
      let links = D.links g in
      let row ?(ops = 1) ?max_words op run =
        {
          name = Printf.sprintf "%s/n=%d" op n;
          ops;
          max_words;
          run = (fun () -> ignore (Sys.opaque_identity (run ())));
        }
      in
      let updates = Array.of_list (List.map (fun (u, v, w) -> (u, v, w *. 1.5)) links) in
      (* an absent pair for the single-link rows, and the node of highest
         degree with its links for the attach rows *)
      let u0, v0 =
        let rec absent u v = if u <> v && D.weight g u v = infinity then (u, v) else absent u (v + 1) in
        absent 0 1
      in
      let x =
        let best = ref 0 in
        for k = 0 to n - 1 do
          if D.out_degree g k > D.out_degree g !best then best := k
        done;
        !best
      in
      let attach = List.filter (fun (u, v, _) -> u = x || v = x) links in
      let detach = List.map (fun (u, v, _) -> (u, v, infinity)) attach in
      let edited = D.copy g in
      D.set_weights edited detach;
      [
        row "create" (fun () -> D.create ~n ~links);
        row "reverse" (fun () -> D.reverse g);
        row "links" (fun () -> D.links g);
        row "copy" (fun () -> D.copy g);
        row ~ops:(Array.length updates) ~max_words:0.0 "set_weight/in-place" (fun () ->
            for i = 0 to Array.length updates - 1 do
              let u, v, w = updates.(i) in
              D.set_weight edited u v w
            done);
        row ~ops:2 "set_weight/insert+delete" (fun () ->
            D.set_weight edited u0 v0 1.0;
            D.set_weight edited u0 v0 infinity);
        row ~ops:2
          (Printf.sprintf "attach+detach/deg=%d" (List.length attach))
          (fun () ->
            D.set_weights edited attach;
            D.set_weights edited detach);
      ])
    [ 200; 800 ]

(* ---------------- session flush ---------------- *)

(* The served node op less its codec, on the served node instance: one
   declaration drawn as the served benchmark draws it (a node other than
   the root uniformly, its original cost times U[0.9, 1.1]), then the
   charges.  The draws go on from run to run, so every declaration moves
   a cost.  A declaration is one link re-declaration per neighbour (38
   on average here), so a list cell or a closure per link edit in the
   adapter would add some 115 words per op: the ceiling sits less than
   that above what the op allocates. *)
let node_edit_pay ~ceiling =
  let module NS = Wnet_session.Node_session in
  let g = paper_node_udg ~n:600 in
  let n = Wnet_graph.Graph.n g in
  let rng = Wnet_prng.Rng.create 9101 in
  let s = NS.create g ~root:0 in
  ignore (NS.charges s);
  let ops = 64 in
  {
    name = "session/node-edit+pay";
    ops;
    max_words = Some ceiling;
    run =
      (fun () ->
        for _ = 1 to ops do
          let k = 1 + Wnet_prng.Rng.int rng (n - 1) in
          NS.set_cost s k (Wnet_graph.Graph.cost g k *. Wnet_prng.Rng.float_range rng 0.9 1.1);
          ignore (Sys.opaque_identity (NS.charges s))
        done);
  }

(* The served link op's edit half on the served instance: 32 link
   re-declarations drawn as the served benchmark draws them (a link
   uniformly, its original weight times U[0.9, 1.1]), then the
   coalesced flush.  The session pays once at set-up and, in the first
   row, never again: entries the flushes drop stay dropped, but the
   candidate scan and its ancestor walks, which run for every
   candidate of every flush, are all there, so a closure call or a
   boxed float per candidate comes back as words.  The second row pays
   after every flush, the served op less its codec.  Both carry a
   words ceiling: about 340 candidates per flush, so one boxed float
   pair each would add some 1 400 words per op. *)
let session () =
  let open Wnet_graph in
  let module LS = Wnet_session.Link_session in
  let g = paper_udg ~n:200 in
  let links = Array.of_list (Digraph.links g) in
  let rng = Wnet_prng.Rng.create 9101 in
  let bursts = 64 in
  let draws =
    Array.init (bursts * 32) (fun _ ->
        let u, v, w = links.(Wnet_prng.Rng.int rng (Array.length links)) in
        (u, v, w *. Wnet_prng.Rng.float_range rng 0.9 1.1))
  in
  let row name ~pay ~ceiling =
    let s = LS.create g ~root:0 in
    ignore (LS.payments s);
    let next = ref 0 in
    {
      name;
      ops = bursts;
      max_words = Some ceiling;
      run =
        (fun () ->
          for _ = 1 to bursts do
            for _ = 1 to 32 do
              let u, v, w = draws.(!next) in
              LS.set_cost s u v w;
              next := (!next + 1) mod Array.length draws
            done;
            LS.flush s;
            if pay then ignore (Sys.opaque_identity (LS.charges s))
          done);
    }
  in
  [
    row "session/burst-32+flush" ~pay:false ~ceiling:2200.0;
    row "session/burst-32+flush+pay" ~pay:true ~ceiling:3400.0;
    node_edit_pay ~ceiling:2960.0;
  ]

(* ---------------- measurement & family runner ---------------- *)

let time_once f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

let time_best ?(budget = 0.25) ?(min_reps = 3) ?(max_reps = 200) f =
  f ();
  let best = ref infinity and total = ref 0.0 and reps = ref 0 in
  while !reps < min_reps || (!total < budget && !reps < max_reps) do
    let t = time_once f in
    if t < !best then best := t;
    total := !total +. t;
    incr reps
  done;
  (!best, !reps)

(* Minor words per operation.  [Gc.minor_words] itself allocates its
   boxed float result, so the overhead is bounded by a handful of words
   per *batch* of [reps * ops] operations — the 0.01 threshold in
   {!check_alloc_at_most} leaves room for that and nothing else. *)
let alloc_words_per_op ?(reps = 64) p =
  p.run ();
  let w0 = Gc.minor_words () in
  for _ = 1 to reps do
    p.run ()
  done;
  let w1 = Gc.minor_words () in
  (w1 -. w0) /. float_of_int (reps * p.ops)

let native = Sys.backend_type = Sys.Native

(* Fails the run above [words] minor words per operation: 0 for a
   steady-state primitive, what it returns for one that must allocate
   that and nothing more (whose arrays must then fit the minor heap, at
   most 256 words each, or the minor count misses them). *)
let check_alloc_at_most family p words =
  if native then begin
    let w = alloc_words_per_op p in
    if w > words +. 0.01 then begin
      Printf.eprintf
        "%s/%s: allocation regression — %.3f minor words/op, want at most \
         %.0f\n"
        family p.name w words;
      exit 1
    end
  end

let check_alloc family p = Option.iter (check_alloc_at_most family p) p.max_words

(* Words per operation as the table prints them: the minor words plus
   those allocated straight into the major heap (arrays over 256
   words), which the minor count misses. *)
let words_per_op ?(reps = 8) p =
  p.run ();
  let direct_major () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  let minor0 = Gc.minor_words () and major0 = direct_major () in
  for _ = 1 to reps do
    p.run ()
  done;
  let minor1 = Gc.minor_words () and major1 = direct_major () in
  (minor1 -. minor0 +. (major1 -. major0)) /. float_of_int (reps * p.ops)

let run_family family prims =
  let smoke = Array.exists (( = ) "--smoke") Sys.argv in
  Printf.printf "== %s microbench%s ==\n" family
    (if smoke then " (smoke)" else "");
  let table =
    Wnet_stats.Table.make
      ~headers:[ "primitive"; "ns/op"; "words/op"; "runs" ]
  in
  List.iter
    (fun p ->
      check_alloc family p;
      let words =
        if native then Printf.sprintf "%.3f" (words_per_op p)
        else "n/a"
      in
      let time_s, runs =
        if smoke then (time_once p.run, 1) else time_best p.run
      in
      let ns = time_s /. float_of_int p.ops *. 1e9 in
      Wnet_stats.Table.add_row table
        [ p.name; Printf.sprintf "%.1f" ns; words; string_of_int runs ])
    prims;
  Wnet_stats.Table.print table;
  if not native then
    print_endline "(bytecode build: allocation assertions skipped)"
