(* The per-relay avoidance cache both session engines share, and its
   flush policy (DESIGN.md, "Cache maintenance").

   [avoid.(k)] holds the root-side distances of the search with relay
   [k] forbidden.  An array outlives its exactness: a dropped entry
   keeps its storage, and the refill at the next payments writes into
   it, so steady-state flushes allocate no distance arrays.

   After a burst of net edits (already applied to the graph) and once
   the shared SPT is up to date, each exact entry is slack-tested
   against every edit.  An entry no edit touches is exact as it stands
   (a kept decrease improves no label, a kept rise was strictly slack,
   so no shortest path ran through it — and jointly, the untouched
   edits leave every old shortest path and every feasibility
   constraint intact).  A touched entry is brought up to date one of two
   exact ways, whichever the cost model below prices lower:

   - repair in place with only the edits that touch it.  The
     untouched ones already hold for the old labels, so the array is
     exact for the graph minus the touching edits, which is the repair's
     precondition; the settle loop reads current weights throughout;
   - or drop it, for {!refill} to recompute from the shared tree
     ({!Wnet_graph.Avoid_region}: only the relay's subtree is settled).

   Both give bit-identical arrays, so the choice moves time, never a
   payment.

   The cache also assembles the payments from its arrays ({!charges}):
   one pass over the relays, no vector per source. *)

open Wnet_graph

type t = {
  pool : Wnet_par.t;
  mutable avoid : float array option array;
  mutable exact : bool array;  (* exact.(k): avoid.(k) is exact now *)
  mutable scratches : Dijkstra.scratch array;  (* one per pool slot *)
  mutable dscratches : Dynamic_sssp.dist_scratch array;  (* likewise *)
  mutable avoid_runs : int;
  mutable avoid_reused : int;
  mutable repaired : int;
  mutable fallbacks : int;
  mutable tasks_executed : int;
  mutable tasks_stolen : int;
  mutable avoid_bounded : int;
  mutable avoid_fallback : int;
  region_hist : int array;
  mutable index : (int * Avoid_region.index * int array) option;
      (* the shared tree's child lists and subtree sizes, keyed by the
         engine's tree stamp: built once per tree, for the flush, the
         refill after it and the payment pass *)
  mutable below : int array;  (* the payment pass's subtree buffer *)
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

let create pool n =
  {
    pool;
    avoid = Array.make n None;
    exact = Array.make n false;
    scratches = Array.init (Wnet_par.size pool) (fun _ -> Dijkstra.make_scratch n);
    dscratches =
      Array.init (Wnet_par.size pool) (fun _ -> Dynamic_sssp.make_dist_scratch n);
    avoid_runs = 0;
    avoid_reused = 0;
    repaired = 0;
    fallbacks = 0;
    tasks_executed = 0;
    tasks_stolen = 0;
    avoid_bounded = 0;
    avoid_fallback = 0;
    region_hist = Array.make hist_buckets 0;
    index = None;
    below = [||];
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

(* A node joined: extend every array with an [infinity] slot (exact for
   a linkless newcomer) and grow the scratches to match. *)
let grow t nn =
  let old = Array.length t.avoid in
  let extend d =
    let d' = Array.make nn infinity in
    Array.blit d 0 d' 0 old;
    d'
  in
  t.avoid <- Array.init nn (fun k -> if k < old then Option.map extend t.avoid.(k) else None);
  t.exact <- Array.init nn (fun k -> k < old && t.exact.(k));
  let slots = Wnet_par.size t.pool in
  if nn > Dijkstra.scratch_capacity t.scratches.(0) then
    t.scratches <-
      Array.init slots (fun _ ->
          Dijkstra.make_scratch (max nn (2 * Dijkstra.scratch_capacity t.scratches.(0))));
  if nn > Dynamic_sssp.dist_scratch_capacity t.dscratches.(0) then
    t.dscratches <-
      Array.init slots (fun _ ->
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

(* [stamp] names the tree: equal stamps, equal trees. *)
let index t ~stamp tree =
  match t.index with
  | Some (s, idx, size) when s = stamp -> (idx, size)
  | _ ->
    let idx = Avoid_region.make_index tree in
    let size = Avoid_region.subtree_sizes idx tree in
    t.index <- Some (stamp, idx, size);
    (idx, size)

(* Relays: internal nodes of the shared tree other than its source, in
   ascending order. *)
let relays (tree : Dijkstra.tree) =
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

(* ------------------------------------------------------------------ *)
(* The cost model.

   Refilling entry [j] copies the [n] tree distances into its array,
   priced as a copy into an array out of cache (which assumes the work
   between two flushes evicts the entry arrays), and re-settles [j]'s
   strict descendants in the shared SPT; past the region budget it is a
   full Dijkstra.  Repairing [j] re-settles the part of [j]'s search
   tree its touching edits disturb.  Outside subtree([j]) that search's
   labels equal the tree's, so an edit on the shared tree disturbs about
   its head's subtree there, and an edit off the tree (which the tree,
   hence that exterior, does not use) disturbs at most subtree([j])
   itself.  A rise first chases and wipes the labels its old weight
   realised, a fall only seeds and settles the labels it improves, so
   the two are priced apart.  Constants are ns per edit and per region
   node, fitted to the micro rows [repair/*] on the served topology
   (DESIGN.md has the table); only their ratios steer the choice. *)

let rise_edit_ns = 250
let rise_node_ns = 353
let fall_edit_ns = 150
let fall_node_ns = 47
let fill_copy_ns = 1 (* per node of the copy into a cold array *)
let fill_node_ns = 208
let full_node_ns = 85 (* per node of a full-graph ban-mask Dijkstra *)

(* Per-entry task outcomes besides a repaired region (>= 0) and an
   overflowed repair (-1). *)
let kept = -2
let dropped = -3

(* One flush: [tree] is the shared SPT for the edited graph; [touches d j
   e] is the slack test (false: [e] provably leaves the [j]-forbidden
   array [d] exact), [disturbs size j e] the estimated number of labels
   [e] disturbs in that array given the tree's subtree sizes, [rises e]
   whether [e] raised a cost, and [repair] the in-place distance
   repair.  Each exact entry is one task — test, price, then repair or
   drop — so its array is read while it is in cache; the counters are
   folded here afterwards. *)
let maintain t ~(tree : Dijkstra.tree) ~stamp ~touches ~disturbs ~rises
    ~repair edits =
  let n = Array.length tree.Dijkstra.dist in
  let budget = Dynamic_sssp.default_budget n in
  let _, size = index t ~stamp tree in
  let rec touching d j = function
    | [] -> []
    | e :: rest ->
      if touches d j e then e :: touching d j rest else touching d j rest
  in
  (* the repair's estimated region, and its price *)
  let rec region j acc = function
    | [] -> acc
    | e :: rest -> region j (acc + disturbs size j e) rest
  in
  let rec repair_ns j acc = function
    | [] -> acc
    | e :: rest ->
      let extra = max 0 (disturbs size j e - 1) in
      repair_ns j
        (acc
        +
        if rises e then rise_edit_ns + (rise_node_ns * extra)
        else fall_edit_ns + (fall_node_ns * extra))
        rest
  in
  let fill_ns j =
    if size.(j) > budget then full_node_ns * n
    else (fill_copy_ns * n) + (fill_node_ns * (size.(j) - 1))
  in
  let entries = ref [] in
  for j = Array.length t.avoid - 1 downto 0 do
    match t.avoid.(j) with
    | Some d when t.exact.(j) -> entries := (j, d) :: !entries
    | _ -> ()
  done;
  let entries = Array.of_list !entries in
  let outcomes =
    steal_map t ~states:t.dscratches
      (fun ds (j, d) ->
        match touching d j edits with
        | [] -> kept
        | es ->
          if region j 0 es <= budget && repair_ns j 0 es < fill_ns j then
            match repair ds ~forbidden:j ~dist:d es with
            | `Patched r -> r
            | `Overflow -> -1
          else dropped)
      entries
  in
  Array.iteri
    (fun i (j, _) ->
      let r = outcomes.(i) in
      if r >= 0 then begin
        t.repaired <- t.repaired + 1;
        record_region t r
      end
      else if r = -1 then begin
        (* an overflowed repair leaves the array corrupted *)
        t.exact.(j) <- false;
        t.fallbacks <- t.fallbacks + 1
      end
      else if r = dropped then t.exact.(j) <- false)
    entries

(* Make every relay's entry exact: the exact ones are reused, the rest
   filled over the pool.  [bounded], when given, is the subtree-bounded
   kernel (region size, or [-1] past the budget), writing into the
   entry's own array; [full] is the full-graph run it falls back to. *)
let refill t ~(tree : Dijkstra.tree) ~stamp ~bounded ~full relays =
  let missing = ref [] in
  for i = Array.length relays - 1 downto 0 do
    if not t.exact.(relays.(i)) then missing := relays.(i) :: !missing
  done;
  let missing = Array.of_list !missing in
  if Array.length missing > 0 then begin
    let n = Array.length tree.Dijkstra.dist in
    let states =
      Array.init (Array.length t.scratches) (fun i ->
          (t.scratches.(i), t.dscratches.(i)))
    in
    let filled =
      match bounded with
      | None -> steal_map t ~states (fun (s, _) k -> (full s k, -1)) missing
      | Some fill ->
        let idx, _ = index t ~stamp tree in
        steal_map t ~states
          (fun (s, ds) k ->
            let d =
              match t.avoid.(k) with Some d -> d | None -> Array.make n infinity
            in
            let r = fill ds idx k d in
            if r >= 0 then (d, r) else (full s k, -1))
          missing
    in
    Array.iteri
      (fun i k ->
        let d, r = filled.(i) in
        t.avoid.(k) <- Some d;
        t.exact.(k) <- true;
        if Option.is_some bounded then
          if r >= 0 then begin
            t.avoid_bounded <- t.avoid_bounded + 1;
            record_region t r
          end
          else t.avoid_fallback <- t.avoid_fallback + 1)
      missing
  end;
  t.avoid_runs <- t.avoid_runs + Array.length missing;
  t.avoid_reused <- t.avoid_reused + (Array.length relays - Array.length missing)

(* ------------------------------------------------------------------ *)
(* Payment assembly (DESIGN.md, "Payment assembly").

   Source [s] pays relay [k] of its path [own k +. (a -. d)] in the link
   model and [own k +. a -. d] in the node model: [a] is [s]'s label in
   [k]'s avoidance array, [d] its tree distance, and [own k] the cost
   [k] declares for forwarding (the weight of its tree link, or its node
   cost).  A charge is the dense payment vector folded left from [+0.0]
   in ascending node id.  That vector is [+0.0] off the relays, and
   adding [+0.0] never changes a sum that starts at [+0.0] (such a sum
   is never [-0.0]), so the charge is the relays' payments added in
   ascending id.  The relays of [s] are its strict ancestors in the
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
let charges t ~(tree : Dijkstra.tree) ~stamp ~model ~own relays =
  let n = Array.length tree.Dijkstra.dist in
  let idx, _ = index t ~stamp tree in
  if Array.length t.below < n then t.below <- Array.make n 0;
  let below = t.below and dist = tree.Dijkstra.dist in
  let charge = Array.make n 0.0 in
  let cut = ref [] in
  for r = 0 to Array.length relays - 1 do
    let k = relays.(r) in
    let a = avoid_of t k in
    let w = own k in
    let monopoly = ref false in
    for i = 0 to Avoid_region.descendants idx k below - 1 do
      let s = Array.unsafe_get below i in
      charge.(s) <- charge.(s) +. pay model w a.(s) dist.(s);
      if a.(s) = infinity then monopoly := true
    done;
    if !monopoly then cut := k :: !cut
  done;
  (charge, List.rev !cut)

(* The payments along [path], aligned with it: entry [i] pays
   [path.(i + 1)]. *)
let relay_pay t ~(tree : Dijkstra.tree) ~model ~own path =
  let src = path.(0) in
  let d = tree.Dijkstra.dist.(src) in
  Array.init
    (max 0 (Array.length path - 2))
    (fun i ->
      let k = path.(i + 1) in
      pay model (own k) (avoid_of t k).(src) d)
