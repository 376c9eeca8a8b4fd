(* The CSR storage and kernels:

   - the storage is the list reference {!Digraph_ref}: [links],
     [weight], [out_degree], [m] and the [csr] rows agree with it bit
     for bit after ANY interleaving of in-place weight edits, bulk
     attaches, node growth and detachment, and a copy or a reverse is
     independent of its source;
   - the CSR Dijkstra kernels (ban mask, key-only pops, scratch-owned
     result) are [Float.equal]-identical to {!Payment_ref}'s searches,
     and a call they refuse leaves the ban mask as it was;
   - a link session under edits pays what the reference pays. *)

open Wnet_graph
module Rng = Wnet_prng.Rng

let floats_equal a b =
  Array.length a = Array.length b && Array.for_all2 Float.equal a b

(* ---------------- storage ≡ the list reference ---------------- *)

let bits = Int64.bits_of_float

let bits_links l = List.map (fun (u, v, w) -> (u, v, bits w)) l

(* Does [g] on [n] nodes read as the reference [r], bit for bit, through
   every accessor? *)
let storage_agrees ~n g r =
  let { Digraph.row_off; col; wgt } = Digraph.csr g in
  let m = List.length r in
  Digraph.n g = n
  && Digraph.m g = m
  && Array.length row_off = n + 1
  && row_off.(0) = 0
  && row_off.(n) = m
  && Array.length col = m
  && Array.length wgt = m
  && bits_links (Digraph.links g) = bits_links r
  && List.for_all
       (fun u ->
         let want = List.map (fun (v, w) -> (v, bits w)) (Digraph_ref.row r u) in
         Digraph.out_degree g u = List.length want
         && List.init (row_off.(u + 1) - row_off.(u)) (fun i ->
                (col.(row_off.(u) + i), bits wgt.(row_off.(u) + i)))
            = want
         && List.for_all
              (fun v ->
                u = v || bits (Digraph.weight g u v) = bits (Digraph_ref.weight r u v))
              (List.init n Fun.id))
       (List.init n Fun.id)

let random_digraph rng ~n =
  let links = ref [] in
  let p = 3.0 /. float_of_int n in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && Rng.bernoulli rng p then
        links := (u, v, Rng.float_range rng 0.5 10.0) :: !links
    done
  done;
  Digraph.create ~n ~links:!links

(* Weights where signed zeros and deletions are common. *)
let draw_weight rng =
  match Rng.int rng 6 with
  | 0 -> 0.0
  | 1 -> -0.0
  | 2 -> infinity
  | _ -> Rng.float_range rng 0.5 10.0

(* A present link half the time, so updates and deletes are common. *)
let draw_pair rng ~n r =
  if r <> [] && Rng.bool rng then
    let u, v, _ = List.nth r (Rng.int rng (List.length r)) in
    (u, v)
  else
    let u = Rng.int rng n in
    (u, (u + 1 + Rng.int rng (n - 1)) mod n)

(* One node's links, with repeated pairs: what a join or a rejoin
   attaches in one merge. *)
let draw_attach rng ~n =
  let x = Rng.int rng n in
  let l = ref [] in
  for _ = 1 to 1 + Rng.int rng 6 do
    if !l <> [] && Rng.bernoulli rng 0.3 then
      let u, v, _ = List.nth !l (Rng.int rng (List.length !l)) in
      l := (u, v, draw_weight rng) :: !l
    else
      let y = (x + 1 + Rng.int rng (n - 1)) mod n in
      l := (if Rng.bool rng then (x, y, draw_weight rng) else (y, x, draw_weight rng)) :: !l
  done;
  List.rev !l

let storage_edit_prop seed =
  let rng = Rng.create seed in
  let n = ref (4 + Rng.int rng 17) in
  let g = random_digraph rng ~n:!n in
  let r = ref (Digraph_ref.create (Digraph.links g)) in
  let agree what ~n x r =
    if not (storage_agrees ~n x r) then
      QCheck2.Test.fail_reportf "%s: storage diverged from the reference" what
  in
  agree "create" ~n:!n g !r;
  for step = 1 to 30 do
    let v0 = Digraph.version g in
    let edit what f =
      f ();
      let what = Printf.sprintf "step %d, %s" step what in
      agree what ~n:!n g !r;
      if Digraph.version g <= v0 then
        QCheck2.Test.fail_reportf "%s: version did not move" what
    in
    match Rng.int rng 8 with
    | 0 | 1 | 2 ->
      let u, v = draw_pair rng ~n:!n !r in
      let w = draw_weight rng in
      edit "set_weight" (fun () ->
          Digraph.set_weight g u v w;
          r := Digraph_ref.set !r u v w)
    | 3 ->
      let l = draw_attach rng ~n:!n in
      edit "set_weights" (fun () ->
          Digraph.set_weights g l;
          r := Digraph_ref.set_all !r l)
    | 4 ->
      edit "add_node" (fun () ->
          let id = Digraph.add_node g in
          if id <> !n then QCheck2.Test.fail_reportf "add_node: id %d, want %d" id !n;
          incr n)
    | 5 ->
      let x = Rng.int rng !n in
      edit "detach_node" (fun () ->
          Digraph.detach_node g x;
          r := Digraph_ref.remove_node !r x)
    | 6 ->
      (* a copy reads as its source; editing it leaves the source be *)
      let c = Digraph.copy g in
      agree "copy" ~n:!n c !r;
      let u, v = draw_pair rng ~n:!n !r in
      Digraph.set_weight c u v (draw_weight rng);
      Digraph.set_weights c (draw_attach rng ~n:!n);
      Digraph.detach_node c (Rng.int rng !n);
      agree "source of an edited copy" ~n:!n g !r
    | _ ->
      (* likewise a reverse, with every link rewritten *)
      let rv = Digraph.reverse g in
      agree "reverse" ~n:!n rv (Digraph_ref.reverse !r);
      List.iter (fun (u, v, w) -> Digraph.set_weight rv u v (w +. 1.0)) (Digraph.links rv);
      ignore (Digraph.add_node rv);
      Digraph.detach_node rv (Rng.int rng !n);
      agree "source of an edited reverse" ~n:!n g !r
  done;
  true

let graph_csr_prop seed =
  let rng = Rng.create seed in
  let g = Test_util.random_ring_graph rng in
  let check g =
    let n = Graph.n g in
    let { Graph.row_off; col } = Graph.csr g in
    if row_off.(n) <> 2 * Graph.m g then
      QCheck2.Test.fail_reportf "row_off total <> 2m";
    for v = 0 to n - 1 do
      let row = Graph.neighbors g v in
      if
        row_off.(v + 1) - row_off.(v) <> Array.length row
        || not
             (Array.for_all Fun.id
                (Array.mapi (fun i w -> col.(row_off.(v) + i) = w) row))
      then QCheck2.Test.fail_reportf "CSR row %d diverged from neighbors" v
    done;
    if not (floats_equal (Graph.costs_view g) (Graph.costs g)) then
      QCheck2.Test.fail_reportf "costs_view diverged from costs"
  in
  check g;
  (* removal rebuilds the view; cost swaps share it *)
  check (Graph.remove_node g (Rng.int rng (Graph.n g)));
  check (Graph.with_cost g (Rng.int rng (Graph.n g)) 42.0);
  true

let egraph_csr_prop seed =
  let rng = Rng.create seed in
  let n = 4 + Rng.int rng 12 in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Rng.bernoulli rng 0.3 then
        edges := (u, v, Rng.float_range rng 0.5 10.0) :: !edges
    done
  done;
  let g = Egraph.create ~n ~edges:!edges in
  let { Egraph.row_off; ncol; ecol } = Egraph.csr g in
  for v = 0 to n - 1 do
    let row = Egraph.incident g v in
    if row_off.(v + 1) - row_off.(v) <> Array.length row then
      QCheck2.Test.fail_reportf "CSR row %d length diverged from incident" v;
    Array.iteri
      (fun i (nbr, e) ->
        let s = row_off.(v) + i in
        if ncol.(s) <> nbr || ecol.(s) <> e then
          QCheck2.Test.fail_reportf "CSR slot diverged from incident")
      row
  done;
  floats_equal (Egraph.weights_view g) (Egraph.weights g)

(* ---------------- CSR kernels ≡ the reference's searches ---------------- *)

let link_kernel_prop seed =
  let rng = Rng.create seed in
  let n = 4 + Rng.int rng 25 in
  let g = random_digraph rng ~n in
  let scratch = Dijkstra.make_scratch n in
  for _ = 1 to 5 do
    let source = Rng.int rng n in
    let avoid =
      let k = Rng.int rng n in
      if k = source then -1 else k
    in
    let expect = Payment_ref.link_dist ~avoid g ~source in
    let got = Dijkstra.link_weighted_dist_csr scratch ~avoid g source in
    if not (floats_equal got expect) then
      QCheck2.Test.fail_reportf "CSR link kernel diverged from the reference";
    (* the convenience wrapper must leave the ban mask clean *)
    if Bytes.exists (fun c -> c <> '\000') (Dijkstra.ban_mask scratch) then
      QCheck2.Test.fail_reportf "ban mask left dirty";
    (* a weight edit between runs must be visible to the next run *)
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then Digraph.set_weight g u v (Rng.float_range rng 0.5 10.0)
  done;
  true

let node_kernel_prop seed =
  let rng = Rng.create seed in
  let g = Test_util.random_sparse_graph rng in
  let n = Graph.n g in
  let scratch = Dijkstra.make_scratch n in
  for _ = 1 to 5 do
    let source = Rng.int rng n in
    let avoid =
      let k = Rng.int rng n in
      if k = source then -1 else k
    in
    let expect = Payment_ref.node_dist ~avoid g ~source in
    let got = Dijkstra.node_weighted_dist_csr scratch ~avoid g ~source in
    if not (floats_equal got expect) then
      QCheck2.Test.fail_reportf "CSR node kernel diverged from the reference"
  done;
  true

let test_scratch_result_is_internal () =
  (* [*_scratch] returns the scratch's own array: capacity-sized, reused
     by the next run. *)
  let g = Digraph.create ~n:3 ~links:[ (0, 1, 1.0); (1, 2, 2.0) ] in
  let s = Dijkstra.make_scratch 8 in
  let d = Dijkstra.link_weighted_scratch s g 0 in
  Alcotest.(check int) "capacity-sized" 8 (Array.length d);
  Test_util.check_float "dist" 3.0 d.(2);
  let d' = Dijkstra.link_weighted_scratch s g 2 in
  Alcotest.(check bool) "same array reused" true (d == d');
  Test_util.check_float "overwritten" 0.0 d.(2)

let test_banned_source_rejected () =
  let g = Digraph.create ~n:2 ~links:[ (0, 1, 1.0) ] in
  let s = Dijkstra.make_scratch 2 in
  Bytes.set (Dijkstra.ban_mask s) 0 '\001';
  Alcotest.check_raises "banned source"
    (Invalid_argument "Dijkstra: source is forbidden") (fun () ->
      ignore (Dijkstra.link_weighted_scratch s g 0))

(* A refused [*_dist_csr] call must leave the ban mask as it found it.
   On 0 -> 1 -> 2 (weights 1, 1) plus 0 -> 2 (5), a byte left set for
   node 1 would make the next run from 0 read [0 inf 5]. *)
let test_refused_run_leaves_mask_clean () =
  let g = Digraph.create ~n:3 ~links:[ (0, 1, 1.0); (1, 2, 1.0); (0, 2, 5.0) ] in
  let s = Dijkstra.make_scratch 3 in
  let clean what =
    Alcotest.(check bool) (what ^ ": mask clean") false
      (Bytes.exists (fun c -> c <> '\000') (Dijkstra.ban_mask s));
    Alcotest.(check (array (float 0.0))) (what ^ ": next run exact") [| 0.0; 1.0; 2.0 |]
      (Dijkstra.link_weighted_dist_csr s g 0)
  in
  Alcotest.check_raises "avoid = source"
    (Invalid_argument "Dijkstra: source is forbidden") (fun () ->
      ignore (Dijkstra.link_weighted_dist_csr s ~avoid:1 g 1));
  clean "avoid = source";
  Alcotest.check_raises "source out of range"
    (Invalid_argument "Dijkstra: source out of range") (fun () ->
      ignore (Dijkstra.link_weighted_dist_csr s ~avoid:1 g 3));
  clean "source out of range";
  let big = Digraph.create ~n:4 ~links:[ (0, 1, 1.0) ] in
  Alcotest.check_raises "graph over capacity"
    (Invalid_argument "Dijkstra: graph exceeds scratch capacity") (fun () ->
      ignore (Dijkstra.link_weighted_dist_csr s ~avoid:1 big 0));
  clean "graph over capacity";
  let ng = Graph.create ~costs:[| 1.0; 1.0; 1.0 |] ~edges:[ (0, 1); (1, 2) ] in
  Alcotest.check_raises "node model, avoid = source"
    (Invalid_argument "Dijkstra: source is forbidden") (fun () ->
      ignore (Dijkstra.node_weighted_dist_csr s ~avoid:1 ng ~source:1));
  clean "node model"

let avoiding_cost_prop seed =
  let rng = Rng.create seed in
  let g = Test_util.random_sparse_graph rng in
  let n = Graph.n g in
  let scratch = Dijkstra.make_scratch n in
  let src = Rng.int rng n in
  let dst = (src + 1 + Rng.int rng (n - 1)) mod n in
  let avoid = Rng.int rng n in
  if avoid = src || avoid = dst then true
  else begin
    let tree_run = (Payment_ref.node_dist ~avoid g ~source:src).(dst) in
    let fast = Avoid.avoiding_cost scratch g ~src ~dst ~avoid in
    Float.equal tree_run fast
    && not (Bytes.exists (fun c -> c <> '\000') (Dijkstra.ban_mask scratch))
  end

(* ---------------- a link session under edits = the reference ---------------- *)

module LS = Wnet_session.Link_session

let link_session_edit_prop seed =
  let rng = Rng.create seed in
  let n = 6 + Rng.int rng 15 in
  let g = random_digraph rng ~n in
  let s = LS.create g ~root:0 in
  let agree what =
    Test_util.fail_on_diff what
      (Test_util.link_session_diff (LS.payments s)
         (Payment_ref.link (LS.snapshot s) ~root:0))
  in
  agree "initial batch";
  for i = 1 to 8 do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then
      LS.set_cost s u v
        (if Rng.bernoulli rng 0.2 then infinity else Rng.float_range rng 0.5 10.0);
    agree (Printf.sprintf "after edit %d" i)
  done;
  true

let suite =
  [
    Test_util.qcheck_case ~count:60 "digraph storage = reference under edits"
      Test_util.seed_gen storage_edit_prop;
    Test_util.qcheck_case ~count:60 "graph CSR = neighbors"
      Test_util.seed_gen graph_csr_prop;
    Test_util.qcheck_case ~count:60 "egraph CSR = incident"
      Test_util.seed_gen egraph_csr_prop;
    Test_util.qcheck_case ~count:60 "link CSR kernel = reference"
      Test_util.seed_gen link_kernel_prop;
    Test_util.qcheck_case ~count:60 "node CSR kernel = reference"
      Test_util.seed_gen node_kernel_prop;
    Alcotest.test_case "scratch kernels return internal array" `Quick
      test_scratch_result_is_internal;
    Alcotest.test_case "banned source rejected" `Quick
      test_banned_source_rejected;
    Alcotest.test_case "refused run leaves the ban mask clean" `Quick
      test_refused_run_leaves_mask_clean;
    Test_util.qcheck_case ~count:60 "avoiding_cost scratch = tree run"
      Test_util.seed_gen avoiding_cost_prop;
    Test_util.qcheck_case ~count:20 "link session under edits = reference"
      Test_util.seed_gen link_session_edit_prop;
  ]
