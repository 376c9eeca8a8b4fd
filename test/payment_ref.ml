(* An independent reference for all-to-root VCG payments, written from
   the paper's formula and sharing no code with lib/.  It reads an
   instance only through [Digraph.n]/[Digraph.links] or
   [Graph.n]/[Graph.cost]/[Graph.neighbors], builds the shortest-path
   tree to the root with its own Dijkstra, and for each relay k of that
   tree runs the same Dijkstra again on an adjacency rebuilt without k.
   Source s then pays each relay k on its path

     p_k = d_k + ||P_-k(s)|| - ||P(s)||,

   d_k being the weight of the link k transmits on (link model, Sec.
   III-F) or k's declared cost (node model, Sec. III-A).

   The engines' answers are compared with it under [Float.equal], so it
   fixes the three choices that decide bits:
   - the tree: nodes settle in ascending (distance, id), and a label
     moves only on a strictly smaller candidate, so a node's parent is
     the first settled node that realises its distance;
   - the association: [d_k +. (a -. d)] in the link model and
     [d_k +. a -. d] in the node model, [a] being ||P_-k|| and [d] ||P||;
   - the sum: a charge adds its relays' payments from [+0.0] in
     ascending relay id. *)

open Wnet_graph

type outcome = {
  src : int;
  path : int array;  (** [src; ...; root] *)
  lcp_cost : float;
  relay_cost : float;  (** [lcp_cost] minus the source's own first hop *)
  relay_pay : float array;  (** [relay_pay.(i)] pays [path.(i + 1)] *)
  charge : float;
}

type batch = {
  to_root_dist : float array;
  results : outcome option array;  (** [None] for the root and unreached sources *)
}

(* The links [(u, v, w)] as adjacency lists on [n] nodes, without those
   into [avoid]: a search over it never labels [avoid]. *)
let adjacency ~n ?(avoid = -1) links =
  let adj = Array.make n [] in
  List.iter (fun (u, v, w) -> if v <> avoid then adj.(u) <- (v, w) :: adj.(u)) links;
  adj

(* Dijkstra by O(n^2) selection: the next node settled is the unsettled
   labelled one of least (distance, id). *)
let dijkstra adj ~source =
  let n = Array.length adj in
  let dist = Array.make n infinity and parent = Array.make n (-1) in
  let settled = Array.make n false in
  dist.(source) <- 0.0;
  let rec settle () =
    let u = ref (-1) in
    for v = 0 to n - 1 do
      if (not settled.(v)) && dist.(v) < infinity && (!u < 0 || dist.(v) < dist.(!u))
      then u := v
    done;
    if !u >= 0 then begin
      let u = !u in
      settled.(u) <- true;
      List.iter
        (fun (v, w) ->
          let c = dist.(u) +. w in
          if c < dist.(v) then begin
            dist.(v) <- c;
            parent.(v) <- u
          end)
        adj.(u);
      settle ()
    end
  in
  settle ();
  (dist, parent)

(* Node model as links: leaving [u] costs its declared cost, except
   from the search's source. *)
let node_links g ~source =
  List.concat
    (List.init (Graph.n g) (fun u ->
         let w = if u = source then 0.0 else Graph.cost g u in
         List.map (fun v -> (u, v, w)) (Array.to_list (Graph.neighbors g u))))

(* Distances from [source], [avoid] never labelled. *)
let link_dist ?avoid g ~source =
  fst (dijkstra (adjacency ~n:(Digraph.n g) ?avoid (Digraph.links g)) ~source)

let node_dist ?avoid g ~source =
  fst (dijkstra (adjacency ~n:(Graph.n g) ?avoid (node_links g ~source)) ~source)

(* Every source served by the tree [(dist, parent)] towards [root].
   [avoid k] is the k-avoiding search, [pay k a d] relay k's payment,
   [first s] what the source pays for its own first hop. *)
let assemble ~root (dist, parent) ~avoid ~pay ~first =
  let n = Array.length dist in
  let relay = Array.make n false in
  Array.iteri
    (fun s p -> if s <> root && p >= 0 && p <> root then relay.(p) <- true)
    parent;
  let avoid = Array.init n (fun k -> if relay.(k) then avoid k else [||]) in
  let served s =
    let rec up v = if v = root then [ root ] else v :: up parent.(v) in
    let path = Array.of_list (up s) in
    let d = dist.(s) in
    let relay_pay =
      Array.init (Array.length path - 2) (fun i ->
          let k = path.(i + 1) in
          pay k avoid.(k).(s) d)
    in
    let by_id =
      List.sort compare
        (List.mapi (fun i p -> (path.(i + 1), p)) (Array.to_list relay_pay))
    in
    {
      src = s;
      path;
      lcp_cost = d;
      relay_cost = d -. first s;
      relay_pay;
      charge = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 by_id;
    }
  in
  {
    to_root_dist = dist;
    results =
      Array.init n (fun s ->
          if s = root || dist.(s) = infinity then None else Some (served s));
  }

(* Link model: distances to the root are distances from it over the
   reversed links; silencing k drops the links out of k. *)
let link g ~root =
  let n = Digraph.n g in
  let links = Digraph.links g in
  let reversed = List.map (fun (u, v, w) -> (v, u, w)) links in
  let weight = Hashtbl.create 64 in
  List.iter (fun (u, v, w) -> Hashtbl.replace weight (u, v) w) links;
  let ((_, parent) as tree) = dijkstra (adjacency ~n reversed) ~source:root in
  let hop v = Hashtbl.find weight (v, parent.(v)) in
  assemble ~root tree
    ~avoid:(fun k -> fst (dijkstra (adjacency ~n ~avoid:k reversed) ~source:root))
    ~pay:(fun k a d -> hop k +. (a -. d))
    ~first:hop

(* Node model: node-weighted distances are symmetric, so the tree from
   the root serves every source; no k-avoiding search enters k. *)
let node g ~root =
  let n = Graph.n g in
  let links = node_links g ~source:root in
  assemble ~root
    (dijkstra (adjacency ~n links) ~source:root)
    ~avoid:(fun k -> fst (dijkstra (adjacency ~n ~avoid:k links) ~source:root))
    ~pay:(fun k a d -> Graph.cost g k +. a -. d)
    ~first:(fun _ -> 0.0)
