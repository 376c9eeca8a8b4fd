(* The session engine's per-relay avoidance cache and its flush policy
   (DESIGN.md, "Cache maintenance").

   The entry for relay [j] holds the labels of the root-side search with
   [j] forbidden on S(j), the strict descendants of [j] in the current
   shared tree, and nothing else: outside S(j) that search's labels are
   the tree's (their tree paths avoid [j]), and [j] reads as
   unreachable.  Every reader takes them from there.  An entry's array is
   indexed by node and outlives its exactness: a dropped entry keeps its
   storage, and the refill at the next payments writes its S(j) into
   it, so steady-state flushes allocate no distance arrays.  A node that
   is no longer a relay (S(j) empty) gives its array up at the refill,
   so the session keeps one array per relay.

   After a burst (already applied to the graph) and once the shared SPT
   is up to date, the flush compares the tree with the one the entries
   were exact against ([snap_*]) and works from what moved:

   - membership: reparenting [x] moves [x]'s subtree out of the relays
     strictly below the point where [x]'s old and new parent chains
     meet, and into those below it on the new chain.  Those entries
     lose their exactness and are refilled;
   - candidate changes: a link [p -> x] whose candidate
     [label p +. weight] moved, because the link was edited or [p]'s
     tree label moved.  The engine writes them into one flat buffer
     ([cands]), which the flush walks inline.  A change concerns the
     relays [j] whose S(j) holds [x],
     [x]'s ancestors, read with [p]'s label from the entry when [p] is
     in S(j) and from the old or new tree otherwise.  The pair touches
     [j] when its new candidate is below [j]'s label of [x], or when its
     old candidate equalled that label bit for bit and the new one is
     larger.

   An entry no pair touches is exact as it stands: every new candidate
   into S(j) is at least its head's label and every candidate that
   realised a label still does, so the labels on S(j) are still the
   minima the search finds.  A touched entry is repaired inside S(j)
   with its pairs ({!Wnet_graph.Avoid_region.link_repair}), or dropped
   for {!refill} when the cost model prices a refill lower.  Both give
   bit-identical labels, so the choice moves time, never a payment.

   The cache also assembles the payments from its entries: the charges
   in one pass over the relays, no vector per source ({!charges}), and
   the per-source payment table in one walk up each source's chain
   ({!table}). *)

open Wnet_graph

type shape = {
  mutable stamp : int;
  idx : Avoid_region.index;
  relays : int array;
      (* internal nodes of the tree other than its source, ascending *)
}

type t = {
  pool : Wnet_par.t;
  mutable avoid : float array option array;
  mutable exact : bool array;  (* exact.(k): avoid.(k) is exact on S(k) *)
  mutable dscratches : Dynamic_sssp.dist_scratch array;  (* one per pool slot *)
  mutable avoid_runs : int;
  mutable avoid_reused : int;
  mutable repaired : int;
  mutable fallbacks : int;
  mutable tasks_executed : int;
  mutable tasks_stolen : int;
  region_hist : int array;
  mutable shape : shape option;
      (* the shared tree's pre-order index and relays, keyed by the
         engine's tree stamp, for the flush, the refill after it and
         the payment pass.  Both depend only on the parents, so a flush
         that moves none re-keys them instead of rebuilding *)
  (* the tree the exact entries are exact against, by stamp (-1: none) *)
  mutable snap : int;
  mutable snap_dist : float array;
  mutable snap_parent : int array;
  (* per-flush work, by node: a stamp per old parent chain walked, and
     per entry its touching pairs ([count]) and where they start in
     [pairs] once grouped ([first]) *)
  mutable walk : int array;
  mutable walks : int;
  mutable count : int array;
  mutable first : int array;
  cands : Dynamic_sssp.changes;
      (* the burst's candidate changes, by the engine: link [tail ->
         head], weight [before] and [after] the burst; walked whenever
         it is full, so it stays at [cands_cap] *)
  pairs : Dynamic_sssp.changes;  (* touching pairs, then grouped by entry *)
  mutable pair_entry : int array;  (* the entry of each *)
}

(* Region-size histogram: bucket 0 holds empty regions, bucket [i >= 1]
   holds sizes in [2^(i-1), 2^i). *)
let hist_buckets = 24

let hist_bucket r =
  if r <= 0 then 0
  else begin
    let b = ref 1 and x = ref r in
    while !x > 1 do
      incr b;
      x := !x lsr 1
    done;
    min !b (hist_buckets - 1)
  end

(* A flush on the served n = 200 instance has about 340 candidates,
   and one in five has over 512 (up to 2 400): walking the buffer
   whenever it fills keeps it, and the session's heap, small.  It is
   sized at the first flush: a one-shot batch never flushes. *)
let cands_cap = 256

let create pool n =
  {
    pool;
    avoid = Array.make n None;
    exact = Array.make n false;
    dscratches =
      Array.init (Wnet_par.size pool) (fun _ -> Dynamic_sssp.make_dist_scratch n);
    avoid_runs = 0;
    avoid_reused = 0;
    repaired = 0;
    fallbacks = 0;
    tasks_executed = 0;
    tasks_stolen = 0;
    region_hist = Array.make hist_buckets 0;
    shape = None;
    snap = -1;
    snap_dist = [||];
    snap_parent = [||];
    walk = [||];
    walks = 0;
    count = [||];
    first = [||];
    cands = Dynamic_sssp.make_changes 0;
    pairs = Dynamic_sssp.make_changes 64;
    pair_entry = Array.make 64 0;
  }

let record_region t r =
  t.region_hist.(hist_bucket r) <- t.region_hist.(hist_bucket r) + 1

let region_histogram t =
  let out = ref [] in
  for b = hist_buckets - 1 downto 0 do
    if t.region_hist.(b) > 0 then
      let lo = if b = 0 then 0 else 1 lsl (b - 1) in
      out := (lo, t.region_hist.(b)) :: !out
  done;
  !out

(* A node joined.  No entry is copied: the newcomer enters a subtree
   only by a membership change, and the refill that follows sizes that
   entry's array. *)
let grow t nn =
  let old = Array.length t.avoid in
  t.avoid <- Array.init nn (fun k -> if k < old then t.avoid.(k) else None);
  t.exact <- Array.init nn (fun k -> k < old && t.exact.(k));
  if nn > Dynamic_sssp.dist_scratch_capacity t.dscratches.(0) then
    t.dscratches <-
      Array.init (Wnet_par.size t.pool) (fun _ ->
          Dynamic_sssp.make_dist_scratch
            (max nn (2 * Dynamic_sssp.dist_scratch_capacity t.dscratches.(0))))

(* Fan [f] out over the pool's work-stealing layer (one task per
   element, idle domains backfill) and fold the scheduler's counter
   deltas into the ledger.  Calls never overlap on a session's pool, so
   the before/after delta is exactly this call's tasks. *)
let steal_map t ~states f a =
  let before = Wnet_par.stats t.pool in
  let r = Wnet_par.map_array_stealing_pooled t.pool ~states f a in
  let after = Wnet_par.stats t.pool in
  t.tasks_executed <-
    t.tasks_executed + after.Wnet_par.tasks_executed
    - before.Wnet_par.tasks_executed;
  t.tasks_stolen <-
    t.tasks_stolen + after.Wnet_par.tasks_stolen - before.Wnet_par.tasks_stolen;
  r

(* Relays: internal nodes of the shared tree other than its source, in
   ascending order. *)
let relays_of (tree : Dijkstra.tree) =
  let n = Array.length tree.Dijkstra.parent in
  let is_relay = Array.make n false in
  for v = 0 to n - 1 do
    let h = tree.Dijkstra.parent.(v) in
    if v <> tree.Dijkstra.source && Dijkstra.reachable tree v
       && h >= 0 && h <> tree.Dijkstra.source
    then is_relay.(h) <- true
  done;
  let l = ref [] in
  for k = n - 1 downto 0 do
    if is_relay.(k) then l := k :: !l
  done;
  Array.of_list !l

(* The tree's labels moved under a kept index: its [pre] no longer
   tells the fills so, and each scratch's working copy is dropped. *)
let forget t = Array.iter Dynamic_sssp.forget_labels t.dscratches

(* The index and relays of the tree [stamp] names: equal stamps, equal
   trees. *)
let shape t ~stamp tree =
  match t.shape with
  | Some sh when sh.stamp = stamp -> sh
  | _ ->
    let sh = { stamp; idx = Avoid_region.make_index tree; relays = relays_of tree } in
    t.shape <- Some sh;
    forget t;
    sh

let index t ~stamp tree = (shape t ~stamp tree).idx

(* The old tree: nodes past the snapshot joined since, unreached. *)
let[@inline] old_dist t v =
  if v < Array.length t.snap_dist then t.snap_dist.(v) else infinity

let[@inline] old_parent t v =
  if v < Array.length t.snap_parent then t.snap_parent.(v) else -1

let snapshot t ~stamp (tree : Dijkstra.tree) =
  let n = Array.length tree.Dijkstra.dist in
  if Array.length t.snap_dist <> n then begin
    t.snap_dist <- Array.make n 0.0;
    t.snap_parent <- Array.make n 0
  end;
  Array.blit tree.Dijkstra.dist 0 t.snap_dist 0 n;
  Array.blit tree.Dijkstra.parent 0 t.snap_parent 0 n;
  t.snap <- stamp

(* The nodes whose label in [tree] differs from the snapshot's: during
   a flush, those whose tree label the burst moved. *)
let relabelled t (tree : Dijkstra.tree) f =
  for v = 0 to Array.length tree.Dijkstra.dist - 1 do
    if not (Float.equal (old_dist t v) tree.Dijkstra.dist.(v)) then f v
  done

(* ------------------------------------------------------------------ *)
(* Membership.  [v] was reparented: its subtree leaves the relays on its
   old parent chain strictly below the first node the new chain shares,
   and joins those on the new chain below it.  Relays at or above the
   meeting point keep it.  The old chain is walked through the old
   parents, each node stamped; the new chain stops at the first stamp. *)

let moved t (tree : Dijkstra.tree) v =
  t.walks <- t.walks + 1;
  let y = ref (old_parent t v) in
  while !y >= 0 do
    t.walk.(!y) <- t.walks;
    y := old_parent t !y
  done;
  let y = ref tree.Dijkstra.parent.(v) in
  while !y >= 0 && t.walk.(!y) <> t.walks do
    t.exact.(!y) <- false;
    y := tree.Dijkstra.parent.(!y)
  done;
  let meet = !y in
  let y = ref (old_parent t v) in
  while !y <> meet do
    t.exact.(!y) <- false;
    y := old_parent t !y
  done

(* Diff the parents against the snapshot: a reparented node drops the
   entries whose subtree it changes.  True when one moved. *)
let diff t (tree : Dijkstra.tree) =
  let n = Array.length tree.Dijkstra.dist in
  if Array.length t.walk < n then begin
    t.walk <- Array.make n 0;
    t.walks <- 0;
    t.count <- Array.make n 0;
    t.first <- Array.make n 0
  end;
  let any = ref false in
  for v = 0 to n - 1 do
    if old_parent t v <> tree.Dijkstra.parent.(v) then begin
      any := true;
      moved t tree v
    end
  done;
  !any

(* No parent moved and no node joined: the snapshot tree's index and
   relays are the new tree's.  Its labels may have moved. *)
let keep_shape t ~stamp n =
  match t.shape with
  | Some sh when sh.stamp = t.snap && sh.stamp <> stamp && sh.idx.Avoid_region.idx_n = n ->
    sh.stamp <- stamp;
    forget t
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Candidate changes.  Link [p -> x] of the buffer, weight [w0] before
   and [w1] now, is tested against every exact entry whose S(j) holds
   [x]: [x]'s strict ancestors below the source.  From the first
   ancestor that is [p] or holds it, [p] is inside S(j) and the entry's
   own label of [p] applies, which an unedited link leaves unmoved: its
   walk stops there.  The ancestor test is {!Avoid_region.inside},
   written out, and a touching pair is counted on its entry. *)

let[@inline] touch t j p x before after =
  let ps = t.pairs in
  Dynamic_sssp.reserve_changes ps 1;
  let i = ps.Dynamic_sssp.len in
  if i >= Array.length t.pair_entry then
    t.pair_entry <- Array.append t.pair_entry (Array.make (Array.length t.pair_entry) 0);
  ps.Dynamic_sssp.tail.(i) <- p;
  ps.Dynamic_sssp.head.(i) <- x;
  ps.Dynamic_sssp.before.(i) <- before;
  ps.Dynamic_sssp.after.(i) <- after;
  ps.Dynamic_sssp.len <- i + 1;
  t.pair_entry.(i) <- j;
  t.count.(j) <- t.count.(j) + 1

let walk_candidates t (tree : Dijkstra.tree) (idx : Avoid_region.index) =
  let { Dynamic_sssp.tail; head; before = cw0; after = cw1; len; _ } = t.cands in
  let pre = idx.Avoid_region.pre and size = idx.Avoid_region.size in
  let parent = tree.Dijkstra.parent and dist = tree.Dijkstra.dist in
  let src = tree.Dijkstra.source and exact = t.exact and avoid = t.avoid in
  for i = 0 to len - 1 do
    let p = tail.(i) and x = head.(i) in
    let w0 = cw0.(i) and w1 = cw1.(i) in
    let edited = not (Float.equal w0 w1) in
    let l0 = old_dist t p and l1 = dist.(p) in
    let pp = pre.(p) in
    let k = ref (if pre.(x) >= 0 then parent.(x) else -1) in
    let inner = ref false in
    while !k >= 0 && !k <> src do
      let j = !k in
      k := parent.(j);
      if not !inner then begin
        let pj = pre.(j) in
        inner := j = p || (pp > pj && pp < pj + size.(j))
      end;
      if !inner && not edited then k := -1
      else if j <> p && exact.(j) then
        match avoid.(j) with
        | None -> ()
        | Some a ->
          let before = (if !inner then a.(p) else l0) +. w0 in
          let after = (if !inner then a.(p) else l1) +. w1 in
          let ax = a.(x) in
          if after < ax || (Float.equal before ax && after > before) then
            touch t j p x before after
    done
  done

let swap_pair t a b =
  let ints (x : int array) =
    let v = x.(a) in
    x.(a) <- x.(b);
    x.(b) <- v
  in
  let floats (x : float array) =
    let v = x.(a) in
    x.(a) <- x.(b);
    x.(b) <- v
  in
  let ps = t.pairs in
  ints ps.Dynamic_sssp.tail;
  ints ps.Dynamic_sssp.head;
  floats ps.Dynamic_sssp.before;
  floats ps.Dynamic_sssp.after;
  ints t.pair_entry

(* ------------------------------------------------------------------ *)
(* The cost model.

   Refilling entry [j] re-settles S(j), whatever its size.  Repairing
   [j] re-settles the part of S(j) its pairs disturb: about the subtree
   of each pair's head.  A rise first chases and wipes the labels its
   old candidate realised, a fall only seeds and settles the labels it
   improves, so the two are priced apart.  Constants are ns per pair and
   per region node, fitted to the time each repair and refill call took
   inside a session serving the [serve-link-text] op stream (DESIGN.md
   has the fit and why it is not taken from the micro rows); only their
   ratios steer the choice. *)

let rise_edit_ns = 840
let rise_node_ns = 490
let fall_edit_ns = 145
let fall_node_ns = 130
let fill_node_ns = 245

(* One flush: [tree] is the shared SPT for the edited graph, and [scan
   room c] appends to the buffer [c] every candidate change of the burst
   (every net edit, then every other link out of a node {!relabelled}
   reports), calling [room k] before it writes [k] of them: [room] walks
   a buffer that has no room left and empties it, in order, so the pairs
   come out as one walk over all the candidates would find them.
   [repair] is the region-only repair of one entry over its pairs.
   Entries are dropped for membership first, then each touched entry is
   priced and repaired or dropped; the repairs fan out over the pool,
   one task each. *)
let maintain t ~(tree : Dijkstra.tree) ~stamp ~scan ~repair =
  if t.snap >= 0 then begin
    let n = Array.length tree.Dijkstra.dist in
    let budget = Dynamic_sssp.default_budget n in
    if not (diff t tree) then keep_shape t ~stamp n;
    let idx = index t ~stamp tree in
    let c = t.cands in
    t.pairs.Dynamic_sssp.len <- 0;
    c.Dynamic_sssp.len <- 0;
    Dynamic_sssp.reserve_changes c cands_cap;
    let room k =
      if c.Dynamic_sssp.len + k > Array.length c.Dynamic_sssp.tail then begin
        walk_candidates t tree idx;
        c.Dynamic_sssp.len <- 0;
        Dynamic_sssp.reserve_changes c k
      end
    in
    scan room c;
    walk_candidates t tree idx;
    (* group the pairs by entry in place: [first.(j)] is the next slot
       of [j]'s block to fill, and a pair found in a slot that is not
       its entry's is swapped into its entry's next slot.  Each swap
       places one pair; [first.(j)] ends up past [j]'s last. *)
    let g = t.pairs in
    let off = ref 0 in
    for j = 0 to n - 1 do
      t.first.(j) <- !off;
      off := !off + t.count.(j)
    done;
    let stop = ref 0 in
    for j = 0 to n - 1 do
      stop := !stop + t.count.(j);
      while t.first.(j) < !stop do
        let k = t.first.(j) in
        let e = t.pair_entry.(k) in
        if e <> j then swap_pair t k t.first.(e);
        t.first.(e) <- t.first.(e) + 1
      done
    done;
    (* price each touched entry: repair it, or drop it *)
    let fixes = ref [] in
    for j = n - 1 downto 0 do
      if t.count.(j) > 0 then begin
        let last = t.first.(j) in
        let first = last - t.count.(j) in
        t.count.(j) <- 0;
        let region = ref 0 and ns = ref 0 in
        for k = first to last - 1 do
          let r = idx.Avoid_region.size.(g.Dynamic_sssp.head.(k)) in
          region := !region + r;
          ns :=
            !ns
            +
            if g.Dynamic_sssp.after.(k) > g.Dynamic_sssp.before.(k) then
              rise_edit_ns + (rise_node_ns * (r - 1))
            else fall_edit_ns + (fall_node_ns * (r - 1))
        done;
        let fill_ns = fill_node_ns * (idx.Avoid_region.size.(j) - 1) in
        (* an array from before a join is refilled, which sizes it *)
        let short = match t.avoid.(j) with Some a -> Array.length a < n | None -> true in
        if !region <= budget && !ns < fill_ns && not short then
          fixes := (j, first, last) :: !fixes
        else t.exact.(j) <- false
      end
    done;
    let fixes = Array.of_list !fixes in
    if Array.length fixes > 0 then begin
      let outcomes =
        steal_map t ~states:t.dscratches
          (fun ds (j, first, last) ->
            match t.avoid.(j) with
            | Some d -> repair ds idx j d g ~first ~last
            | None -> -1)
          fixes
      in
      Array.iteri
        (fun i (j, _, _) ->
          let r = outcomes.(i) in
          if r >= 0 then begin
            t.repaired <- t.repaired + 1;
            record_region t r
          end
          else begin
            (* an overflowed repair leaves the entry corrupted *)
            t.exact.(j) <- false;
            t.fallbacks <- t.fallbacks + 1
          end)
        fixes
    end;
    snapshot t ~stamp tree
  end

(* Make every relay's entry exact: the exact ones are reused, the rest
   filled over the pool.  [fill] is the region-only kernel, writing
   S(k) into the entry's own array and returning its size. *)
let refill t ~(tree : Dijkstra.tree) ~stamp ~fill =
  let { idx; relays; _ } = shape t ~stamp tree in
  (* entries of nodes that are no longer relays: S(j) is empty *)
  let r = ref 0 in
  for j = 0 to Array.length t.avoid - 1 do
    if !r < Array.length relays && relays.(!r) = j then incr r
    else if Option.is_some t.avoid.(j) then begin
      t.avoid.(j) <- None;
      t.exact.(j) <- false
    end
  done;
  let missing = ref [] in
  for i = Array.length relays - 1 downto 0 do
    if not t.exact.(relays.(i)) then missing := relays.(i) :: !missing
  done;
  let missing = Array.of_list !missing in
  if Array.length missing > 0 then begin
    let n = Array.length tree.Dijkstra.dist in
    let filled =
      steal_map t ~states:t.dscratches
        (fun ds k ->
          (* outside S(k) the array is never read *)
          let d =
            match t.avoid.(k) with
            | Some d when Array.length d >= n -> d
            | _ -> Array.create_float n
          in
          (d, fill ds idx k d))
        missing
    in
    Array.iteri
      (fun i k ->
        let d, r = filled.(i) in
        t.avoid.(k) <- Some d;
        t.exact.(k) <- true;
        record_region t r)
      missing
  end;
  t.avoid_runs <- t.avoid_runs + Array.length missing;
  t.avoid_reused <- t.avoid_reused + (Array.length relays - Array.length missing);
  if t.snap <> stamp then snapshot t ~stamp tree

(* The exact entries, as (relay, array), in ascending relay order. *)
let entries t =
  let l = ref [] in
  for j = Array.length t.avoid - 1 downto 0 do
    match t.avoid.(j) with
    | Some a when t.exact.(j) -> l := (j, a) :: !l
    | _ -> ()
  done;
  !l

(* ------------------------------------------------------------------ *)
(* Payment assembly (DESIGN.md, "Payment assembly").

   Source [s] pays relay [k] of its path [own k +. (a -. d)] in the link
   model and [own k +. a -. d] in the node model: [a] is [s]'s label in
   [k]'s avoidance array, [d] its tree distance, and [own k] the cost
   [k] declares for forwarding (the weight of its tree link, or over the
   node model's view its node cost), read from a flat array the engine
   fills once per version.  A charge is the dense payment vector folded
   left from [+0.0] in ascending node id.  That vector is [+0.0] off the
   relays, and adding [+0.0] never changes a sum that starts at [+0.0]
   (such a sum is never [-0.0]), so the charge is the relays' payments
   added in ascending id.  The relays of [s] are its strict ancestors in the
   shared tree, the root excepted; so a pass over the relays in
   ascending id that adds each relay's payment into every strict
   descendant makes, for every source, exactly those additions in
   exactly that order. *)

let[@inline] pay model own a d =
  match model with `Link -> own +. (a -. d) | `Node -> own +. a -. d

let avoid_of t k =
  match t.avoid.(k) with
  | Some a -> a
  | None -> invalid_arg "Avoid_cache: relay without an avoidance array"

(* Per source, its charge ([+0.0] for the root, for sources next to it
   and for unreached ones), and the relays some source pays [infinity]
   (ascending).  Every relay's entry must be exact: call after
   {!refill}. *)
let charges t ~(tree : Dijkstra.tree) ~stamp ~model ~(own : float array) =
  let n = Array.length tree.Dijkstra.dist in
  let { idx; relays; _ } = shape t ~stamp tree in
  let { Avoid_region.pre; size; order; _ } = idx and dist = tree.Dijkstra.dist in
  let charge = Array.make n 0.0 in
  let cut = ref [] in
  for r = 0 to Array.length relays - 1 do
    let k = relays.(r) in
    let a = avoid_of t k in
    let w = own.(k) in
    let monopoly = ref false in
    for i = pre.(k) + 1 to pre.(k) + size.(k) - 1 do
      let s = Array.unsafe_get order i in
      charge.(s) <- charge.(s) +. pay model w a.(s) dist.(s);
      if a.(s) = infinity then monopoly := true
    done;
    if !monopoly then cut := k :: !cut
  done;
  (charge, List.rev !cut)

(* The payment table: for each reached source but the tree's own
   source, in ascending id, [f s path relay_pay] with [path] its chain
   up the shared tree ([s] first, the root last) and [relay_pay.(i)]
   its payment to [path.(i + 1)], each as {!charges} adds it.  Tree
   depths, read off the pre-order, size each path, so every chain is
   walked once, straight into its array. *)
let table t ~(tree : Dijkstra.tree) ~stamp ~model ~(own : float array) f =
  let n = Array.length tree.Dijkstra.dist in
  let { Avoid_region.order; size; _ } = index t ~stamp tree in
  let parent = tree.Dijkstra.parent and dist = tree.Dijkstra.dist in
  let root = tree.Dijkstra.source in
  let depth = Array.make n 0 in
  for i = 1 to size.(root) - 1 do
    let v = order.(i) in
    depth.(v) <- depth.(parent.(v)) + 1
  done;
  Array.init n (fun s ->
      if s = root || not (Dijkstra.reachable tree s) then None
      else begin
        let len = depth.(s) + 1 in
        let path = Array.make len s in
        for i = 1 to len - 1 do
          path.(i) <- parent.(path.(i - 1))
        done;
        let d = dist.(s) in
        let relay_pay = Array.create_float (len - 2) in
        for i = 0 to len - 3 do
          let k = path.(i + 1) in
          relay_pay.(i) <- pay model own.(k) (avoid_of t k).(s) d
        done;
        Some (f s path relay_pay)
      end)
