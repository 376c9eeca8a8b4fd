open Wnet_graph

let small () =
  Digraph.create ~n:4
    ~links:[ (0, 1, 1.0); (1, 2, 2.0); (2, 3, 3.0); (3, 0, 4.0); (1, 0, 5.0) ]

let test_sizes () =
  let g = small () in
  Alcotest.(check int) "n" 4 (Digraph.n g);
  Alcotest.(check int) "m" 5 (Digraph.m g)

let test_weight_lookup () =
  let g = small () in
  Test_util.check_float "forward" 1.0 (Digraph.weight g 0 1);
  Test_util.check_float "reverse direction distinct" 5.0 (Digraph.weight g 1 0);
  Test_util.check_float "absent" infinity (Digraph.weight g 0 2)

let test_parallel_links_keep_cheapest () =
  let g = Digraph.create ~n:2 ~links:[ (0, 1, 5.0); (0, 1, 2.0); (0, 1, 9.0) ] in
  Alcotest.(check int) "one link" 1 (Digraph.m g);
  Test_util.check_float "cheapest" 2.0 (Digraph.weight g 0 1)

let test_infinite_links_dropped () =
  let g = Digraph.create ~n:2 ~links:[ (0, 1, infinity) ] in
  Alcotest.(check int) "dropped" 0 (Digraph.m g)

let test_validation () =
  Alcotest.check_raises "self loop" (Invalid_argument "Digraph.create: self-loop")
    (fun () -> ignore (Digraph.create ~n:1 ~links:[ (0, 0, 1.0) ]));
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Digraph.create: weight must be non-negative") (fun () ->
      ignore (Digraph.create ~n:2 ~links:[ (0, 1, -1.0) ]))

let test_reverse () =
  let g = small () in
  let r = Digraph.reverse g in
  Alcotest.(check int) "same m" (Digraph.m g) (Digraph.m r);
  Test_util.check_float "flipped" 1.0 (Digraph.weight r 1 0);
  Test_util.check_float "flipped 2" 3.0 (Digraph.weight r 3 2);
  (* reversing twice is the identity on the link set *)
  Alcotest.(check (list (triple int int (float 0.0)))) "involution"
    (Digraph.links g)
    (Digraph.links (Digraph.reverse r))

let test_silence_node () =
  let g = small () in
  let s = Digraph.silence_node g 1 in
  Test_util.check_float "out-links gone" infinity (Digraph.weight s 1 2);
  Test_util.check_float "in-links kept" 1.0 (Digraph.weight s 0 1);
  Alcotest.(check int) "m reduced by out-degree" 3 (Digraph.m s)

let test_silence_reverse_duality () =
  (* silence in g == dropping the links into the node in reverse g: the
     identity the batch payment computation relies on. *)
  let g = small () in
  let a = Digraph.reverse (Digraph.silence_node g 1) in
  let b = Digraph_ref.drop_links_into (Digraph_ref.reverse (Digraph.links g)) 1 in
  Alcotest.(check (list (triple int int (float 0.0)))) "duality"
    (Digraph.links a) b

let test_csr_rows () =
  let g = small () in
  let { Digraph.row_off; col; _ } = Digraph.csr g in
  Alcotest.(check int) "out degree" 2 (Digraph.out_degree g 1);
  Alcotest.(check int) "row length" 2 (row_off.(2) - row_off.(1));
  Alcotest.(check bool) "sorted by target" true (col.(row_off.(1)) < col.(row_off.(1) + 1));
  Alcotest.(check int) "m slots" (Digraph.m g) (Array.length col)

(* ---- Differential construction properties against Digraph_ref ---- *)

(* Rows compared bit for bit, so [0.0] and [-0.0] are told apart. *)
let bits_row l = List.map (fun (v, w) -> (v, Int64.bits_of_float w)) l

let bits_links l = List.map (fun (u, v, w) -> (u, v, Int64.bits_of_float w)) l

let matches_ref g ref_links =
  Digraph.m g = List.length ref_links
  && List.for_all
       (fun u ->
         bits_row (Test_util.row g u)
         = bits_row (Digraph_ref.row ref_links u))
       (List.init (Digraph.n g) Fun.id)

(* Weights drawn so that ties, signed zeros and dropped links are
   common: small integers tie often at n <= 12. *)
let weight_gen =
  QCheck2.Gen.(
    frequency
      [
        (1, return 0.0);
        (1, return (-0.0));
        (1, return infinity);
        (3, map float_of_int (int_range 1 3));
        (3, float_range 0.0 10.0);
      ])

(* [n] in 0..12 and a valid link list with duplicates: a random list,
   then re-declarations of some of its links with fresh weights.
   Nodes no link touches stay isolated. *)
let links_gen =
  QCheck2.Gen.(
    int_range 0 12 >>= fun n ->
    if n < 2 then return (n, [])
    else
      let link =
        map
          (fun (u, d, w) -> (u, (u + d) mod n, w))
          (triple (int_range 0 (n - 1)) (int_range 1 (n - 1)) weight_gen)
      in
      list_size (int_range 0 (3 * n)) link >>= fun base ->
      list_size (int_range 0 (List.length base)) weight_gen >|= fun ws ->
      let redeclare i w =
        let u, v, _ = List.nth base i in
        (u, v, w)
      in
      (n, base @ List.mapi redeclare ws))

let print_links (n, l) =
  Printf.sprintf "n=%d [%s]" n
    (String.concat "; " (List.map (fun (u, v, w) -> Printf.sprintf "(%d,%d,%h)" u v w) l))

let links_case name prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name ~print:print_links links_gen prop)

let create_prop =
  links_case "create = reference (bits, m)" (fun (n, links) ->
      matches_ref (Digraph.create ~n ~links) (Digraph_ref.create links))

let reverse_prop =
  links_case "reverse = reference, involution, unshared" (fun (n, links) ->
      let g = Digraph.create ~n ~links in
      let before = bits_links (Digraph.links g) in
      let r = Digraph.reverse g in
      let ok =
        matches_ref r (Digraph_ref.reverse (Digraph_ref.create links))
        && bits_links (Digraph.links (Digraph.reverse r)) = before
      in
      (* Sessions mutate a graph and its reversal in place: writing
         every link of [r] must leave [g] as it was. *)
      List.iter (fun (u, v, w) -> Digraph.set_weight r u v (w +. 1.0)) (Digraph.links r);
      ok && bits_links (Digraph.links g) = before)

let links_prop =
  links_case "links = reference, sorted" (fun (n, links) ->
      let l = Digraph.links (Digraph.create ~n ~links) in
      let rec sorted = function
        | a :: (b :: _ as rest) -> compare a b < 0 && sorted rest
        | _ -> true
      in
      bits_links l = bits_links (Digraph_ref.create links) && sorted l)

let removals_prop =
  links_case "detach_node = filter" (fun (n, links) ->
      let g = Digraph.create ~n ~links and r = Digraph_ref.create links in
      List.for_all
        (fun x ->
          let d = Digraph.copy g in
          Digraph.detach_node d x;
          matches_ref d (Digraph_ref.remove_node r x))
        (List.init n Fun.id))

(* A bad triple spliced into a valid list at a random position. *)
let bad_links_gen =
  QCheck2.Gen.(
    links_gen >>= fun (n, links) ->
    let n = max n 1 in
    let bad =
      oneofl
        [ (0, 0, 1.0); (0, n, 1.0); (-1, 0, 1.0); (0, 1, -1.0); (0, 1, nan); (0, 1, -0.5) ]
    in
    triple bad bad (int_range 0 (List.length links)) >|= fun (b1, b2, pos) ->
    ( n,
      List.filteri (fun i _ -> i < pos) links
      @ (b1 :: List.filteri (fun i _ -> i >= pos) links)
      @ [ b2 ] ))

let first_error_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"first bad triple raises its message"
       ~print:print_links bad_links_gen (fun (n, links) ->
         let got =
           match Digraph.create ~n ~links with
           | _ -> None
           | exception Invalid_argument m -> Some m
         in
         got = Digraph_ref.create_error ~n links))

let test_equal_weights_keep_first () =
  let g =
    Digraph.create ~n:3
      ~links:[ (0, 1, 0.0); (0, 1, -0.0); (1, 2, -0.0); (1, 2, 0.0); (2, 0, 2.0); (2, 0, 2.0) ]
  in
  Alcotest.(check int) "one link per pair" 3 (Digraph.m g);
  Alcotest.(check int64) "0.0 first" (Int64.bits_of_float 0.0)
    (Int64.bits_of_float (Digraph.weight g 0 1));
  Alcotest.(check int64) "-0.0 first" (Int64.bits_of_float (-0.0))
    (Int64.bits_of_float (Digraph.weight g 1 2))

(* The node model's link view against {!Payment_ref.node_links}, the
   reference's own node-as-links construction: the reversed view is its
   link list and the forward view that list reversed, triple for triple
   with weights compared as bits.  Random sparse graphs with costs of
   0 and -0.0 among others and a few removed (isolated) nodes, the last
   node always among them; every root of degree 0 or 1, and node 0. *)
let node_view_prop seed =
  let module Rng = Wnet_prng.Rng in
  let rng = Rng.create seed in
  let g0 = Test_util.random_sparse_graph rng in
  let n = Graph.n g0 in
  let special = [| 0.0; -0.0; 1.0; 2.5 |] in
  let costs =
    Array.init n (fun v ->
        if Rng.bernoulli rng 0.4 then special.(Rng.int rng 4) else Graph.cost g0 v)
  in
  let removed = (n - 1) :: List.filter (fun _ -> Rng.bernoulli rng 0.15) (List.init n Fun.id) in
  let g = Graph.remove_nodes (Graph.with_costs g0 costs) removed in
  let same got want =
    List.length got = List.length want
    && List.for_all2
         (fun (u, v, w) (u', v', w') ->
           u = u' && v = v' && Int64.equal (Int64.bits_of_float w) (Int64.bits_of_float w'))
         got want
  in
  let roots = List.filter (fun v -> v = 0 || Graph.degree g v <= 1) (List.init n Fun.id) in
  List.for_all
    (fun root ->
      let fwd, rev = Digraph.node_view g ~root in
      let want = List.sort compare (Payment_ref.node_links g ~source:root) in
      (same (Digraph.links rev) want
      && same (Digraph.links fwd) (List.sort compare (List.map (fun (u, v, w) -> (v, u, w)) want))
      && Digraph.m fwd = 2 * Graph.m g)
      || QCheck2.Test.fail_reportf "root %d: the view is not the reference's links" root)
    roots

let suite =
  [
    Alcotest.test_case "sizes" `Quick test_sizes;
    Alcotest.test_case "weight lookup" `Quick test_weight_lookup;
    Alcotest.test_case "parallel links keep cheapest" `Quick test_parallel_links_keep_cheapest;
    Alcotest.test_case "infinite links dropped" `Quick test_infinite_links_dropped;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "reverse" `Quick test_reverse;
    Alcotest.test_case "silence_node" `Quick test_silence_node;
    Alcotest.test_case "silence/reverse duality" `Quick test_silence_reverse_duality;
    Alcotest.test_case "csr rows sorted" `Quick test_csr_rows;
    Alcotest.test_case "equal weights keep the first" `Quick test_equal_weights_keep_first;
    create_prop;
    reverse_prop;
    links_prop;
    removals_prop;
    first_error_prop;
    Test_util.qcheck_case ~count:200 "node view = reference node links (bits)"
      Test_util.seed_gen node_view_prop;
  ]
