(* A list-based reference for Digraph construction, written from its
   contract and sharing no code with lib/graph.  A graph is its sorted
   list of (src, dst, weight) triples.

   The contract: [infinity] means "no link"; the remaining triples are
   ordered by (src, dst); parallel links keep the minimum weight, and
   on equal weights the first in list order — so a duplicate [0.0] and
   [-0.0] keep whichever came first. *)

let create links =
  let finite = List.filter (fun (_, _, w) -> w < infinity) links in
  let sorted =
    List.stable_sort (fun (u, v, _) (u', v', _) -> compare (u, v) (u', v')) finite
  in
  let rec merge = function
    | (u, v, w) :: (u', v', w') :: rest when u = u' && v = v' ->
      merge ((u, v, if w' < w then w' else w) :: rest)
    | l :: rest -> l :: merge rest
    | [] -> []
  in
  merge sorted

(* The message [Digraph.create] raises for the first bad triple in
   list order, or [None] when every triple is valid. *)
let create_error ~n links =
  List.find_map
    (fun (u, v, w) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        Some "Digraph.create: endpoint out of range"
      else if u = v then Some "Digraph.create: self-loop"
      else if Float.is_nan w || w < 0.0 then
        Some "Digraph.create: weight must be non-negative"
      else None)
    links

let reverse links = create (List.map (fun (u, v, w) -> (v, u, w)) links)

let remove_node links x = List.filter (fun (u, v, _) -> u <> x && v <> x) links

let drop_links_into links x = List.filter (fun (_, v, _) -> v <> x) links

(* Row [u] of the reference, as the CSR arrays lay it out. *)
let row links u =
  List.filter_map (fun (s, v, w) -> if s = u then Some (v, w) else None) links

(* The in-place edits.  [set] is [Digraph.set_weight]: update, insert,
   or remove on [infinity]; [set_all] applies a list in order, so a
   later entry for a pair wins.  Adding a node changes no link: the
   caller counts nodes. *)
let set links u v w =
  let rest = List.filter (fun (a, b, _) -> a <> u || b <> v) links in
  if w < infinity then
    List.stable_sort (fun (a, b, _) (a', b', _) -> compare (a, b) (a', b')) ((u, v, w) :: rest)
  else rest

let set_all links l = List.fold_left (fun acc (u, v, w) -> set acc u v w) links l

let weight links u v =
  match List.find_opt (fun (a, b, _) -> a = u && b = v) links with
  | Some (_, _, w) -> w
  | None -> infinity
