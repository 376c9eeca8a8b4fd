type tree = { source : int; dist : float array; parent : int array }

let never _ = false

(* Both tree solvers iterate the graph's flat CSR view (see {!Digraph.csr}
   / {!Graph.csr}): row [u] is a slice of int/float arrays, so the inner
   loop is monomorphic int indexing with no per-link tuple to chase.
   Settling pops only the key — the indexed heap keeps priority =
   distance for every live key, so the popped distance is read back from
   the dist array without allocating the (key, prio) tuple.  Priorities
   are written through [prios] and ordered by [touch], as in the scratch
   kernels below: classic ocamlopt boxes a float passed to [insert] or
   [insert_or_decrease], so the solvers allocate only the arrays they
   return and their heap.  [node_weighted]'s [forbidden] is asked only
   about a node a relaxation would improve: a forbidden node is never
   labelled, and the answer is the same whenever it is asked. *)

let node_weighted ?(forbidden = never) g ~source =
  let n = Graph.n g in
  if source < 0 || source >= n then invalid_arg "Dijkstra: source out of range";
  if forbidden source then invalid_arg "Dijkstra: source is forbidden";
  let { Graph.row_off; col } = Graph.csr g in
  let cost = Graph.costs_view g in
  let dist = Array.make n infinity in
  let parent = Array.make n (-1) in
  let heap = Indexed_heap.create n in
  let prio = Indexed_heap.prios heap in
  dist.(source) <- 0.0;
  prio.(source) <- 0.0;
  Indexed_heap.touch heap source;
  while not (Indexed_heap.is_empty heap) do
    let u = Indexed_heap.pop_min_key heap in
    let du = dist.(u) in
    (* Leaving [u] charges its relay cost, except from the source. *)
    let cand = if u = source then du else du +. cost.(u) in
    for i = row_off.(u) to row_off.(u + 1) - 1 do
      let w = Array.unsafe_get col i in
      if cand < dist.(w) && not (forbidden w) then begin
        dist.(w) <- cand;
        parent.(w) <- u;
        prio.(w) <- cand;
        Indexed_heap.touch heap w
      end
    done
  done;
  parent.(source) <- -1;
  { source; dist; parent }

let link_weighted g source =
  let n = Digraph.n g in
  if source < 0 || source >= n then invalid_arg "Dijkstra: source out of range";
  let { Digraph.row_off; col; wgt } = Digraph.csr g in
  let dist = Array.make n infinity in
  let parent = Array.make n (-1) in
  let heap = Indexed_heap.create n in
  let prio = Indexed_heap.prios heap in
  dist.(source) <- 0.0;
  prio.(source) <- 0.0;
  Indexed_heap.touch heap source;
  while not (Indexed_heap.is_empty heap) do
    let u = Indexed_heap.pop_min_key heap in
    let du = dist.(u) in
    for i = row_off.(u) to row_off.(u + 1) - 1 do
      let w = Array.unsafe_get col i in
      let cand = du +. Array.unsafe_get wgt i in
      if cand < dist.(w) then begin
        dist.(w) <- cand;
        parent.(w) <- u;
        prio.(w) <- cand;
        Indexed_heap.touch heap w
      end
    done
  done;
  parent.(source) <- -1;
  { source; dist; parent }

(* ------------------------------------------------------------------ *)
(* Reusable workspace.

   Batch payment computation runs one avoidance Dijkstra per relay and
   only keeps the distance array of each run.  A scratch owns the dist
   array, the heap, and a ban mask across runs, maintaining the
   invariant that every [sdist] entry is [infinity] between runs: a run
   logs each node it touches and the next run resets exactly those
   entries, so the hot relaxation loop reads and writes a single plain
   array (no epoch indirection) while repeated runs neither reallocate
   nor re-fill n-sized buffers.  The scratch runs below also skip
   parent bookkeeping entirely — avoidance runs never walk paths.

   The ban mask stands in for a [?forbidden] predicate: one byte per
   node, consulted with an unsafe load instead of an indirect call (and
   no closure to allocate per run).  It is the caller's steady-state:
   set the bytes you need, run, clear them.

   A scratch is single-owner state: one concurrent run per scratch (each
   pool participant gets its own via [Wnet_par.map_array_with]). *)

type scratch = {
  cap : int;
  sdist : float array;  (* all [infinity] outside a run *)
  touched : int array;  (* nodes whose [sdist] entry is currently finite *)
  mutable n_touched : int;
  sheap : Indexed_heap.t;
  sban : Bytes.t;  (* '\000' = allowed; caller-managed, all-zero between uses *)
}

let make_scratch cap =
  if cap < 0 then invalid_arg "Dijkstra.make_scratch: negative capacity";
  {
    cap;
    sdist = Array.make (max cap 1) infinity;
    touched = Array.make (max cap 1) 0;
    n_touched = 0;
    sheap = Indexed_heap.create cap;
    sban = Bytes.make (max cap 1) '\000';
  }

let scratch_capacity s = s.cap

let ban_mask s = s.sban

let begin_run s n =
  if n > s.cap then invalid_arg "Dijkstra: graph exceeds scratch capacity";
  (* A completed run leaves the heap empty; one aborted by an exception
     may not, so drain defensively. *)
  while not (Indexed_heap.is_empty s.sheap) do
    ignore (Indexed_heap.pop_min_key s.sheap)
  done;
  for i = 0 to s.n_touched - 1 do
    s.sdist.(s.touched.(i)) <- infinity
  done;
  s.n_touched <- 0

(* The CSR scratch kernels: flat rows, ban-mask bytes, key-only pops,
   results left in the scratch — zero steady-state allocation (the
   micro suite hard-asserts it).  They settle in the tree solvers'
   (distance, id) order with the same strict relaxation, so their
   distances are the tree solvers' bit for bit. *)

let node_weighted_scratch scratch g ~source =
  let n = Graph.n g in
  if source < 0 || source >= n then invalid_arg "Dijkstra: source out of range";
  if Bytes.get scratch.sban source <> '\000' then
    invalid_arg "Dijkstra: source is forbidden";
  begin_run scratch n;
  let { Graph.row_off; col } = Graph.csr g in
  let cost = Graph.costs_view g in
  let heap = scratch.sheap in
  let prio = Indexed_heap.prios heap in
  let dist = scratch.sdist in
  let touched = scratch.touched in
  let ban = scratch.sban in
  dist.(source) <- 0.0;
  touched.(scratch.n_touched) <- source;
  scratch.n_touched <- scratch.n_touched + 1;
  (* Priorities go through [prios]+[touch] rather than [insert] /
     [insert_or_decrease]: classic ocamlopt boxes float arguments at
     those call boundaries, and this kernel must not allocate. *)
  prio.(source) <- 0.0;
  Indexed_heap.touch heap source;
  while not (Indexed_heap.is_empty heap) do
    let u = Indexed_heap.pop_min_key heap in
    let du = Array.unsafe_get dist u in
    let cand = if u = source then du else du +. Array.unsafe_get cost u in
    for i = row_off.(u) to row_off.(u + 1) - 1 do
      let w = Array.unsafe_get col i in
      if Bytes.unsafe_get ban w = '\000' then begin
        let dw = Array.unsafe_get dist w in
        if cand < dw then begin
          if dw = infinity then begin
            Array.unsafe_set touched scratch.n_touched w;
            scratch.n_touched <- scratch.n_touched + 1
          end;
          Array.unsafe_set dist w cand;
          Array.unsafe_set prio w cand;
          Indexed_heap.touch heap w
        end
      end
    done
  done;
  dist

let link_weighted_scratch scratch g source =
  let n = Digraph.n g in
  if source < 0 || source >= n then invalid_arg "Dijkstra: source out of range";
  if Bytes.get scratch.sban source <> '\000' then
    invalid_arg "Dijkstra: source is forbidden";
  begin_run scratch n;
  let { Digraph.row_off; col; wgt } = Digraph.csr g in
  let heap = scratch.sheap in
  let prio = Indexed_heap.prios heap in
  let dist = scratch.sdist in
  let touched = scratch.touched in
  let ban = scratch.sban in
  dist.(source) <- 0.0;
  touched.(scratch.n_touched) <- source;
  scratch.n_touched <- scratch.n_touched + 1;
  prio.(source) <- 0.0;
  Indexed_heap.touch heap source;
  while not (Indexed_heap.is_empty heap) do
    let u = Indexed_heap.pop_min_key heap in
    let du = Array.unsafe_get dist u in
    for i = row_off.(u) to row_off.(u + 1) - 1 do
      let w = Array.unsafe_get col i in
      if Bytes.unsafe_get ban w = '\000' then begin
        let cand = du +. Array.unsafe_get wgt i in
        let dw = Array.unsafe_get dist w in
        if cand < dw then begin
          if dw = infinity then begin
            Array.unsafe_set touched scratch.n_touched w;
            scratch.n_touched <- scratch.n_touched + 1
          end;
          Array.unsafe_set dist w cand;
          Array.unsafe_set prio w cand;
          Indexed_heap.touch heap w
        end
      end
    done
  done;
  dist

(* The [*_dist_csr] runs set [avoid]'s ban byte around one scratch run.
   Every argument that run would reject is checked before the byte is
   set: a run that raised with it set would leave it set, and every
   later run on the scratch would silently skip [avoid]. *)
let check_dist_csr scratch n ~avoid ~source =
  if source < 0 || source >= n then invalid_arg "Dijkstra: source out of range";
  if n > scratch.cap then invalid_arg "Dijkstra: graph exceeds scratch capacity";
  if avoid = source || Bytes.get scratch.sban source <> '\000' then
    invalid_arg "Dijkstra: source is forbidden"

let node_weighted_dist_csr scratch ?(avoid = -1) g ~source =
  let n = Graph.n g in
  check_dist_csr scratch n ~avoid ~source;
  if avoid >= 0 then Bytes.set scratch.sban avoid '\001';
  let dist = node_weighted_scratch scratch g ~source in
  if avoid >= 0 then Bytes.set scratch.sban avoid '\000';
  Array.sub dist 0 n

let link_weighted_dist_csr scratch ?(avoid = -1) g source =
  let n = Digraph.n g in
  check_dist_csr scratch n ~avoid ~source;
  if avoid >= 0 then Bytes.set scratch.sban avoid '\001';
  let dist = link_weighted_scratch scratch g source in
  if avoid >= 0 then Bytes.set scratch.sban avoid '\000';
  Array.sub dist 0 n

let dist t v = t.dist.(v)

let reachable t v = t.dist.(v) < infinity

let path_to t v =
  if not (reachable t v) then None
  else begin
    let rec up v acc = if v = t.source then v :: acc else up t.parent.(v) (v :: acc) in
    Some (Array.of_list (up v []))
  end

let children t =
  let n = Array.length t.parent in
  let counts = Array.make n 0 in
  Array.iter (fun p -> if p >= 0 then counts.(p) <- counts.(p) + 1) t.parent;
  let out = Array.init n (fun v -> Array.make counts.(v) 0) in
  let fill = Array.make n 0 in
  Array.iteri
    (fun v p ->
      if p >= 0 then begin
        out.(p).(fill.(p)) <- v;
        fill.(p) <- fill.(p) + 1
      end)
    t.parent;
  out
