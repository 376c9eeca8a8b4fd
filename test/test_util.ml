(* Shared helpers for the test suites. *)

let approx ?(eps = 1e-9) a b =
  (a = b)
  || (a = infinity && b = infinity)
  || (Float.is_nan a && Float.is_nan b)
  || Float.abs (a -. b) <= eps *. (1.0 +. Float.max (Float.abs a) (Float.abs b))

let float_approx =
  Alcotest.testable
    (fun ppf x -> Format.fprintf ppf "%.12g" x)
    (fun a b -> approx a b)

let check_float = Alcotest.check float_approx

let rng seed = Wnet_prng.Rng.create seed

(* A connected random graph with strictly positive costs, for property
   tests: ring backbone + random chords. *)
let random_ring_graph ?(min_n = 4) ?(max_n = 40) r =
  let n = min_n + Wnet_prng.Rng.int r (max_n - min_n + 1) in
  let costs = Array.init n (fun _ -> 0.1 +. Wnet_prng.Rng.float r 10.0) in
  let edges = ref (List.init n (fun v -> (v, (v + 1) mod n))) in
  let extra = Wnet_prng.Rng.int r (2 * n) in
  for _ = 1 to extra do
    let u = Wnet_prng.Rng.int r n and v = Wnet_prng.Rng.int r n in
    if u <> v then edges := (u, v) :: !edges
  done;
  Wnet_graph.Graph.create ~costs ~edges:!edges

(* Sparse random graph (tree + few chords): node removal often
   disconnects, exercising the infinity paths. *)
let random_sparse_graph ?(min_n = 4) ?(max_n = 30) r =
  let n = min_n + Wnet_prng.Rng.int r (max_n - min_n + 1) in
  let costs = Array.init n (fun _ -> 0.05 +. Wnet_prng.Rng.float r 5.0) in
  let edges = ref [] in
  for v = 1 to n - 1 do
    edges := (v, Wnet_prng.Rng.int r v) :: !edges
  done;
  let extra = Wnet_prng.Rng.int r 4 in
  for _ = 1 to extra do
    let u = Wnet_prng.Rng.int r n and v = Wnet_prng.Rng.int r n in
    if u <> v then edges := (u, v) :: !edges
  done;
  Wnet_graph.Graph.create ~costs ~edges:!edges

let qcheck_case ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* QCheck generator wrapping one of our seeded graph generators: we
   generate a seed and derive the structure, which shrinks poorly but
   keeps generation deterministic and cheap. *)
let seed_gen = QCheck2.Gen.int_range 0 1_000_000

(* The dense per-node payment vector a path-aligned outcome stands for:
   relay [path.(i + 1)] is paid [relay_pay.(i)], every other node
   [+0.0].  Built here, independently of lib/, for the assertions that
   compare node by node. *)
let dense_payments ~n (path : int array) relay_pay =
  let p = Array.make n 0.0 in
  Array.iteri (fun i x -> p.(path.(i + 1)) <- x) relay_pay;
  p

(* The charge the dense vector stands for, folded left from [0.0] the
   way the paper's sum reads: the bit pattern every [charge] must
   reproduce. *)
let dense_charge ~n path relay_pay =
  Array.fold_left ( +. ) 0.0 (dense_payments ~n path relay_pay)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0
