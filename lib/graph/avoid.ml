type result = { path : Path.t; lcp_cost : float; replacement : float array }

let validate_endpoints g ~src ~dst =
  let n = Graph.n g in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Avoid: endpoint out of range";
  if src = dst then invalid_arg "Avoid: src = dst"

let avoiding_cost scratch g ~src ~dst ~avoid =
  validate_endpoints g ~src ~dst;
  if avoid = src || avoid = dst then
    invalid_arg "Avoid.avoiding_cost: cannot avoid an endpoint";
  (* Ban mask instead of a closure: set the one byte, run the CSR
     kernel, read the answer out of the scratch, clear the byte.
     Nothing is allocated.  The capacity is checked first, so the run
     cannot raise with the byte set. *)
  if Graph.n g > Dijkstra.scratch_capacity scratch then
    invalid_arg "Dijkstra: graph exceeds scratch capacity";
  let ban = Dijkstra.ban_mask scratch in
  Bytes.set ban avoid '\001';
  let d = (Dijkstra.node_weighted_scratch scratch g ~source:src).(dst) in
  Bytes.set ban avoid '\000';
  d

let replacement_costs_naive g ~src ~dst =
  validate_endpoints g ~src ~dst;
  let t = Dijkstra.node_weighted g ~source:src in
  match Dijkstra.path_to t dst with
  | None -> None
  | Some path ->
    let len = Array.length path in
    let replacement = Array.make len nan in
    let scratch = Dijkstra.make_scratch (Graph.n g) in
    for l = 1 to len - 2 do
      replacement.(l) <- avoiding_cost scratch g ~src ~dst ~avoid:path.(l)
    done;
    Some { path; lcp_cost = Dijkstra.dist t dst; replacement }

(* Level labelling.  [idx.(v)] is the position of [v] on the LCP or -1;
   a non-path node inherits the path index at which its branch of the
   source-rooted shortest-path tree leaves the LCP. *)
let compute_levels g ~(tree : Dijkstra.tree) (path : Path.t) =
  let n = Graph.n g in
  let idx = Array.make n (-1) in
  Array.iteri (fun a v -> idx.(v) <- a) path;
  let level = Array.make n (-1) in
  let kids = Dijkstra.children tree in
  let stack = ref [ tree.Dijkstra.source ] in
  level.(tree.Dijkstra.source) <- 0;
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | u :: rest ->
      stack := rest;
      Array.iter
        (fun w ->
          level.(w) <- (if idx.(w) >= 0 then idx.(w) else level.(u));
          stack := w :: !stack)
        kids.(u)
  done;
  level

let levels g ~tree path = compute_levels g ~tree path

let replacement_costs_fast g ~src ~dst =
  validate_endpoints g ~src ~dst;
  if not (Graph.all_positive_costs g) then
    invalid_arg "Avoid.replacement_costs_fast: requires strictly positive costs";
  let tree_i = Dijkstra.node_weighted g ~source:src in
  match Dijkstra.path_to tree_i dst with
  | None -> None
  | Some path ->
    let len = Array.length path in
    let s = len - 1 in
    let lcp_cost = Dijkstra.dist tree_i dst in
    let replacement = Array.make len nan in
    if s <= 1 then Some { path; lcp_cost; replacement }
    else begin
      let n = Graph.n g in
      let { Graph.row_off; col } = Graph.csr g in
      let cost = Graph.costs_view g in
      let tree_j = Dijkstra.node_weighted g ~source:dst in
      let on_path = Array.make n (-1) in
      Array.iteri (fun a v -> on_path.(v) <- a) path;
      let level = compute_levels g ~tree:tree_i path in
      let lcost v = Dijkstra.dist tree_i v in
      let rcost v = Dijkstra.dist tree_j v in
      (* Cost of the best src->v path counting v's own relay cost (unless
         v is an endpoint of the unicast), and symmetrically for v->dst. *)
      let wl v = lcost v +. (if v = src then 0.0 else Graph.cost g v) in
      let wr v = rcost v +. (if v = dst then 0.0 else Graph.cost g v) in
      (* Bucket non-path nodes by level; only internal levels matter. *)
      let bucket = Array.make (s + 1) [] in
      for v = 0 to n - 1 do
        if on_path.(v) < 0 && level.(v) >= 1 && level.(v) <= s - 1 then
          bucket.(level.(v)) <- v :: bucket.(level.(v))
      done;
      (* Step 3: R^{-l}(v) = cheapest v->dst cost avoiding path.(l), for v
         in the level-l pocket.  Nodes of level > l (and path nodes past l)
         act as exits whose shortest distance to dst already avoids
         path.(l) (Lemma 2); a per-pocket Dijkstra then handles travel
         within the pocket. *)
      let rminus = Array.make n infinity in
      let right_exit l w =
        (* Is w's shortest path to dst certified to avoid path.(l)? *)
        if on_path.(w) >= 0 then on_path.(w) > l else level.(w) > l
      in
      for l = 1 to s - 1 do
        match bucket.(l) with
        | [] -> ()
        | pocket ->
          let heap = Indexed_heap.create n in
          List.iter
            (fun v ->
              let base = ref infinity in
              for i = row_off.(v) to row_off.(v + 1) - 1 do
                let w = Array.unsafe_get col i in
                if level.(w) >= 0 && right_exit l w then begin
                  let via = if w = dst then 0.0 else cost.(w) +. rcost w in
                  if via < !base then base := via
                end
              done;
              Indexed_heap.insert heap v !base)
            pocket;
          while not (Indexed_heap.is_empty heap) do
            let u, du = Indexed_heap.pop_min heap in
            if du < infinity then begin
              rminus.(u) <- du;
              let cand = cost.(u) +. du in
              for i = row_off.(u) to row_off.(u + 1) - 1 do
                let w = Array.unsafe_get col i in
                if Indexed_heap.mem heap w then
                  Indexed_heap.insert_or_decrease heap w cand
              done
            end
          done
      done;
      (* Step 4: best detour that dives into the level-l pocket from the
         left region and escapes via R^{-l}. *)
      let cminus = Array.make (s + 1) infinity in
      let left_ok l w =
        if on_path.(w) >= 0 then on_path.(w) < l
        else level.(w) >= 0 && level.(w) < l
      in
      for l = 1 to s - 1 do
        List.iter
          (fun v ->
            if rminus.(v) < infinity then
              for i = row_off.(v) to row_off.(v + 1) - 1 do
                let w = Array.unsafe_get col i in
                if left_ok l w then begin
                  (* Same association order as the boxed loop. *)
                  let cand = wl w +. cost.(v) +. rminus.(v) in
                  if cand < cminus.(l) then cminus.(l) <- cand
                end
              done)
          bucket.(l)
      done;
      (* Step 5: lazy heap of crossing edges (u, w), level u < l < level w,
         valued L(u)+c_u+c_w+R(w).  Edges enter the heap bucketed by the
         level of their high endpoint as l sweeps downwards; an edge whose
         low endpoint's level rises to >= l is stale forever and is
         discarded on pop. *)
      let edges_by_high = Array.make (s + 1) [] in
      Graph.iter_edges
        (fun a b ->
          let la = if on_path.(a) >= 0 then on_path.(a) else level.(a) in
          let lb = if on_path.(b) >= 0 then on_path.(b) else level.(b) in
          if la >= 0 && lb >= 0 && la <> lb then begin
            let u, lu, w, lw = if la < lb then (a, la, b, lb) else (b, lb, a, la) in
            if lw >= 2 && lu <= s - 2 && lw - lu >= 2 then
              edges_by_high.(lw) <- (wl u +. wr w, lu) :: edges_by_high.(lw)
          end)
        g;
      let heap = Binheap.create () in
      for l = s - 1 downto 1 do
        List.iter (fun (value, lu) -> Binheap.push heap value lu) edges_by_high.(l + 1);
        let rec drain () =
          match Binheap.peek_min heap with
          | Some (_, lu) when lu >= l ->
            ignore (Binheap.pop_min heap);
            drain ()
          | Some (value, _) -> value
          | None -> infinity
        in
        let edge_best = drain () in
        replacement.(l) <- Float.min edge_best cminus.(l)
      done;
      Some { path; lcp_cost; replacement }
    end
