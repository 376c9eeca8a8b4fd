(* Incremental/decremental SSSP repair (Ramalingam–Reps style).

   Shared shape of both repairs, for a burst of net link edits already
   applied to the graph:

   1. {e Closure}: collect the nodes whose old label could have been
      realised through a risen/deleted link — transitively.  The tree
      repair reads this off the old tree (the subtrees hanging under
      risen tree links); the distance-only repair, having no parents,
      chases realisation equalities [d.(x) +. w_old = d.(y)] instead
      (a superset of the truly affected nodes, which is safe: they are
      re-derived to the same values).  It works on candidate changes
      (a link whose [label tail +. weight] moved), so one loop serves an
      edited link and, in a run scoped to a subtree, a boundary link
      whose exterior tail's label moved.
   2. {e Wipe and reseed}: set the region's labels to [infinity], then
      offer each region node its best candidate through its in-links
      from the intact boundary (current weights), and seed every
      changed link whose tail kept its label.
   3. {e Bounded frontier Dijkstra}: settle the region in label order,
      relaxing out-links with current weights.  A label improved after
      its node settled is simply re-settled (label-correcting), which
      keeps mixed increase/decrease bursts exact.

   The region counter is checked against a budget at every first
   marking; exceeding it aborts into the caller's from-scratch path, so
   the worst case stays one full Dijkstra plus a bounded probe.

   Exactness: distances are minima of identical float sums however the
   frontier is ordered, so distance-only repair is unconditionally
   bit-identical to a fresh run.  Parents are only forced when the
   minimising predecessor is unique; every relaxation or boundary scan
   that observes a bit-for-bit tie which could let the from-scratch
   settlement order pick a different parent raises [Tie] and the tree
   is rebuilt from scratch instead. *)

type edit = { u : int; v : int; w0 : float; w1 : float }

let default_budget n = max 32 (n / 2)

exception Overflow
exception Tie

(* ------------------------------------------------------------------ *)
(* Distance-only repair                                                 *)

type changes = {
  mutable tail : int array;
  mutable head : int array;
  mutable before : float array;
  mutable after : float array;
  mutable len : int;
}

let make_changes cap =
  let c = max cap 1 in
  {
    tail = Array.make c 0;
    head = Array.make c 0;
    before = Array.make c 0.0;
    after = Array.make c 0.0;
    len = 0;
  }

let reserve_changes ch k =
  let cap = Array.length ch.tail in
  if ch.len + k > cap then begin
    let c = max (ch.len + k) (2 * cap) in
    let ints a = Array.append (Array.sub a 0 ch.len) (Array.make (c - ch.len) 0) in
    let floats a =
      Array.append (Array.sub a 0 ch.len) (Array.make (c - ch.len) 0.0)
    in
    ch.tail <- ints ch.tail;
    ch.head <- ints ch.head;
    ch.before <- floats ch.before;
    ch.after <- floats ch.after
  end

type dist_scratch = {
  cap : int;
  mark : int array;  (* mark.(x) = epoch: x is in the region *)
  mutable epoch : int;
  region : int array;  (* marked nodes, in marking order *)
  mutable n_region : int;
  heap : Indexed_heap.t;
  (* The run's scope: [x] lies in it iff [lo < pre.(x) <= hi]; a label
     outside it is read from [ext].  [everywhere] (all zero, with
     [lo = -1], [hi = max_int - 1]) is the whole graph. *)
  everywhere : int array;
  mutable pre : int array;
  mutable lo : int;
  mutable hi : int;
  mutable ext : float array;
  own : changes;  (* the edit-list repairs' changes *)
  (* The fills' working labels: between fills, the labels of the tree
     whose index's [pre] array is [lab_pre] *)
  lab : float array;
  mutable lab_pre : int array;
}

let make_dist_scratch cap =
  if cap < 0 then invalid_arg "Dynamic_sssp.make_dist_scratch: negative capacity";
  let c = max cap 1 in
  let everywhere = Array.make c 0 in
  {
    cap;
    mark = Array.make c 0;
    epoch = 0;
    region = Array.make c 0;
    n_region = 0;
    heap = Indexed_heap.create cap;
    everywhere;
    pre = everywhere;
    lo = -1;
    hi = max_int - 1;
    ext = [||];
    own = make_changes 16;
    lab = Array.create_float c;
    lab_pre = [||];
  }

let dist_scratch_capacity s = s.cap

let begin_dist_run s n =
  if n > s.cap then
    invalid_arg "Dynamic_sssp: graph exceeds scratch capacity";
  s.epoch <- s.epoch + 1;
  s.n_region <- 0;
  s.pre <- s.everywhere;
  s.lo <- -1;
  s.hi <- max_int - 1;
  (* a completed repair leaves the heap empty; one aborted by Overflow
     may not *)
  while not (Indexed_heap.is_empty s.heap) do
    ignore (Indexed_heap.pop_min_key s.heap)
  done

let smark s ~budget x =
  if s.mark.(x) <> s.epoch then begin
    if s.n_region >= budget then raise Overflow;
    s.mark.(x) <- s.epoch;
    s.region.(s.n_region) <- x;
    s.n_region <- s.n_region + 1
  end

let[@inline] marked s x = Array.unsafe_get s.mark x = s.epoch

(* [lo < pre.(x) <= hi] as one unsigned comparison: with [lo1 = lo + 1]
   and [span = hi - lo], [pre.(x) - lo1] is in [0, span) exactly then,
   and a negative difference masks to a huge value.  Hot loops hoist the
   three into locals. *)
let[@inline] within pre lo1 span x =
  (Array.unsafe_get pre x - lo1) land max_int < span

let[@inline] inside s x = within s.pre (s.lo + 1) (s.hi - s.lo) x

(* ------------------------------------------------------------------ *)
(* The repairs' wipe, boundary reseed and bounded-frontier settle.

   Every loop keeps to the run's scope: a node outside it is never
   marked, written or relaxed into, and its label is read from [ext].
   The settle loops go through [Indexed_heap.prios]/[touch] rather than
   [insert_or_decrease]: classic ocamlopt boxes float arguments at those
   non-inlined call boundaries, and the kernels must not allocate. *)

let restrict s ~pre ~lo ~hi ~ext =
  s.pre <- pre;
  s.lo <- lo;
  s.hi <- hi;
  s.ext <- ext

let wipe s d =
  for k = 0 to s.n_region - 1 do
    d.(s.region.(k)) <- infinity
  done

(* Offer each region node its best candidate through its in-links from
   the unmarked boundary (current weights, read through the mirror);
   [forbidden] is invisible. *)
let reseed_link s ~j ~m_off ~m_col ~m_wgt d =
  let heap = s.heap in
  let prio = Indexed_heap.prios heap in
  let pre = s.pre and lo1 = s.lo + 1 and span = s.hi - s.lo and ext = s.ext in
  for k = 0 to s.n_region - 1 do
    let x = s.region.(k) in
    for i = m_off.(x) to m_off.(x + 1) - 1 do
      let p = Array.unsafe_get m_col i in
      if p <> j && not (marked s p) then begin
        let dp = if within pre lo1 span p then d.(p) else ext.(p) in
        if dp < infinity then begin
          let cand = dp +. Array.unsafe_get m_wgt i in
          if cand < d.(x) then begin
            d.(x) <- cand;
            prio.(x) <- cand;
            Indexed_heap.touch heap x
          end
        end
      end
    done
  done

(* Settle the seeded frontier in label order (the popped priority always
   equals the node's current label, so the key-only pop reads it back
   from [d]).  Every settled node is marked against the budget: nodes
   reached beyond the closure grow the region. *)
let settle_link s ~budget ~j ~g_off ~g_col ~g_wgt d =
  let heap = s.heap in
  let prio = Indexed_heap.prios heap in
  let pre = s.pre and lo1 = s.lo + 1 and span = s.hi - s.lo in
  while not (Indexed_heap.is_empty heap) do
    let x = Indexed_heap.pop_min_key heap in
    let dx = d.(x) in
    smark s ~budget x;
    for i = g_off.(x) to g_off.(x + 1) - 1 do
      let y = Array.unsafe_get g_col i in
      if y <> j then begin
        let cand = dx +. Array.unsafe_get g_wgt i in
        (* [d.(y)] outside the scope is any float: the scope test
           decides *)
        if cand < d.(y) && within pre lo1 span y then begin
          d.(y) <- cand;
          prio.(y) <- cand;
          Indexed_heap.touch heap y
        end
      end
    done
  done

(* ------------------------------------------------------------------ *)
(* Avoidance fills over working labels ({!Avoid_region}'s kernel).

   The fill for relay [k] computes the [k]-avoiding search's labels on
   R = order.(lo + 1 .. hi), [k]'s strict descendants in the tree.  It
   works on [lab], the scratch's copy of the tree's labels, which is
   equal to them again between fills:

   1. set [lab] to [infinity] on R and on [k];
   2. for each [x] in R, its seed is the min over [x]'s in-links
      [p -> x] of [lab.(p) +. w] (kept in [dist.(x)] for now), and a
      finite seed enters the heap;
   3. the seeds go into [lab] only after the scan, so no seed reads
      another;
   4. [lab.(k) <- neg_infinity], then settle: pop [x], and for each
      out-link [x -> y] with [c = lab.(x) +. w < lab.(y)], label [y]
      with [c];
   5. copy R's labels into [dist], and restore [lab] from the tree on R
      and on [k].

   Why it is exact.  Every label a region node takes is the float sum
   along some [k]-avoiding path, so it is at least that search's label,
   which is at least the node's tree label.  Float addition is monotone
   and a tree label is at most every candidate [fl (label p + w)] over
   its in-links.  So a candidate out of a region node never gets below
   an exterior node's tree label, which is its [lab]: the settle's
   [c < lab.(y)] never holds outside R, and only R's labels move.
   [k] reads [infinity] while R is seeded, so no candidate leaves it,
   and [neg_infinity] while it settles, so none enters it.  Each label
   of R is thus the min over the same float candidates as a fresh
   forbidden run: exterior candidates in step 2 at their tree labels,
   which are the forbidden run's, and interior ones as their tails
   settle.  The inner loops need no mark, scope or forbidden test, and
   the work is bounded by the subtree and its links: no budget.

   The sync.  [lab] is copied from the tree when the [pre] array passed
   in is not the one of the last copy, or after {!forget_labels}: the
   copy is once per tree labels and scratch, not once per fill.  The
   [pre] key covers a caller that builds an index per tree; one that
   keeps an index while the labels move (the session cache, whose
   index outlives every burst that moves no parent) forgets the copy
   instead.  The heap is drained first: an entry repair that
   overflowed mid-settle on this scratch leaves entries behind, and a
   stale [k] would relax at [neg_infinity]. *)

let sync s ~pre ~tree n =
  if n > s.cap then invalid_arg "Dynamic_sssp: graph exceeds scratch capacity";
  if s.lab_pre != pre then begin
    Array.blit tree 0 s.lab 0 n;
    s.lab_pre <- pre
  end;
  while not (Indexed_heap.is_empty s.heap) do
    ignore (Indexed_heap.pop_min_key s.heap)
  done

let forget_labels s = s.lab_pre <- [||]

(* Steps 1, 3 and 5 of the fill. *)
let silence lab order ~lo ~hi k =
  lab.(k) <- infinity;
  for i = lo + 1 to hi do
    lab.(order.(i)) <- infinity
  done

let commit heap lab order ~lo ~hi d =
  let prio = Indexed_heap.prios heap in
  for i = lo + 1 to hi do
    let x = order.(i) in
    let b = d.(x) in
    lab.(x) <- b;
    if b < infinity then begin
      prio.(x) <- b;
      Indexed_heap.touch heap x
    end
  done

let restore (lab : float array) order ~lo ~hi ~(tree : float array) k d =
  for i = lo + 1 to hi do
    let x = order.(i) in
    d.(x) <- lab.(x);
    lab.(x) <- tree.(x)
  done;
  lab.(k) <- tree.(k)

let fill_link s ~forbidden:k ~graph ~mirror ~pre ~order ~lo ~hi ~tree ~dist:d =
  sync s ~pre ~tree (Digraph.n graph);
  let lab = s.lab and heap = s.heap in
  let prio = Indexed_heap.prios heap in
  let { Digraph.row_off = m_off; col = m_col; wgt = m_wgt } = Digraph.csr mirror in
  let { Digraph.row_off = g_off; col = g_col; wgt = g_wgt } = Digraph.csr graph in
  silence lab order ~lo ~hi k;
  for i = lo + 1 to hi do
    let x = order.(i) in
    let best = ref infinity in
    for e = m_off.(x) to m_off.(x + 1) - 1 do
      let c = Array.unsafe_get lab (Array.unsafe_get m_col e) +. Array.unsafe_get m_wgt e in
      if c < !best then best := c
    done;
    d.(x) <- !best
  done;
  commit heap lab order ~lo ~hi d;
  lab.(k) <- neg_infinity;
  while not (Indexed_heap.is_empty heap) do
    let x = Indexed_heap.pop_min_key heap in
    let dx = Array.unsafe_get lab x in
    for e = g_off.(x) to g_off.(x + 1) - 1 do
      let y = Array.unsafe_get g_col e in
      let c = dx +. Array.unsafe_get g_wgt e in
      if c < Array.unsafe_get lab y then begin
        Array.unsafe_set lab y c;
        Array.unsafe_set prio y c;
        Indexed_heap.touch heap y
      end
    done
  done;
  restore lab order ~lo ~hi ~tree k d

let working_labels s = s.lab

let frontier s = Indexed_heap.size s.heap

(* ------------------------------------------------------------------ *)
(* The repair, over candidate changes [first, last) of
   [ch].  A change is a link [tail -> head] whose candidate
   [label tail +. weight] moved from [before] to [after]: an edited
   link, or (for a scoped run) a boundary link whose exterior tail's
   label moved.  Every head lies in the scope and is neither the source
   nor [j]; no tail is [j].  The changes passed must include every one
   that touches [d]; one that does not only widens the region. *)

(* Is [x -> y] one of the changes? *)
let rec changed (ch : changes) x y i last =
  i < last
  && ((Array.unsafe_get ch.tail i = x && Array.unsafe_get ch.head i = y)
     || changed ch x y (i + 1) last)

(* Closure seeds: a candidate that rose off the label it realised. *)
let seed_closure s ~budget (ch : changes) first last d =
  for k = first to last - 1 do
    let h = ch.head.(k) and b = ch.before.(k) in
    if ch.after.(k) > b && Float.equal b d.(h) then smark s ~budget h
  done

(* Closure chase over the changed links out of region node [x], at their
   old candidates. *)
let chase_changed s ~budget (ch : changes) first last x d =
  for k = first to last - 1 do
    if ch.tail.(k) = x then begin
      let h = ch.head.(k) and b = ch.before.(k) in
      if b < infinity && (not (marked s h)) && Float.equal b d.(h) then
        smark s ~budget h
    end
  done

(* After the reseed: a change whose tail kept its label offers its new
   candidate (a marked tail relaxes when it settles). *)
let seed_kept s (ch : changes) first last d =
  let prio = Indexed_heap.prios s.heap in
  for k = first to last - 1 do
    if not (marked s ch.tail.(k)) then begin
      let h = ch.head.(k) and a = ch.after.(k) in
      if a < d.(h) then begin
        d.(h) <- a;
        prio.(h) <- a;
        Indexed_heap.touch s.heap h
      end
    end
  done

(* 1. closure: every node whose old label was realised (possibly as a
   tie) through a risen candidate, transitively, chasing unchanged links
   at current weights and changed ones at their old candidates; 2. wipe
   and reseed from the boundary; 3. the kept tails' new candidates;
   4. the bounded settle.  Region size, or [-1] past the budget. *)
let repair_link s ~budget ~j ~source ~graph ~mirror d ch first last =
  let { Digraph.row_off = g_off; col = g_col; wgt = g_wgt } = Digraph.csr graph in
  let { Digraph.row_off = m_off; col = m_col; wgt = m_wgt } = Digraph.csr mirror in
  match
    seed_closure s ~budget ch first last d;
    let i = ref 0 in
    while !i < s.n_region do
      let x = s.region.(!i) in
      incr i;
      let dx = d.(x) in
      if dx < infinity then begin
        for k = g_off.(x) to g_off.(x + 1) - 1 do
          let y = Array.unsafe_get g_col k in
          if
            y <> j && y <> source
            && (not (marked s y))
            && inside s y
            && Float.equal (dx +. Array.unsafe_get g_wgt k) d.(y)
            && not (changed ch x y first last)
          then smark s ~budget y
        done;
        chase_changed s ~budget ch first last x d
      end
    done;
    wipe s d;
    reseed_link s ~j ~m_off ~m_col ~m_wgt d;
    seed_kept s ch first last d;
    settle_link s ~budget ~j ~g_off ~g_col ~g_wgt d
  with
  | () -> s.n_region
  | exception Overflow -> -1

let check_scoped ~n dist =
  if Array.length dist < n then
    invalid_arg "Dynamic_sssp: scoped repair of a dist array shorter than the graph"

let repair_scoped s ~budget ~forbidden ~graph ~mirror ~source ~scope ~lo ~hi ~ext
    ~dist ch ~first ~last =
  check_scoped ~n:(Digraph.n graph) dist;
  begin_dist_run s (Digraph.n graph);
  restrict s ~pre:scope ~lo ~hi ~ext;
  repair_link s ~budget ~j:forbidden ~source ~graph ~mirror dist ch first last

(* The unscoped repairs take net edits and turn each into changes, its
   candidates read off [d] itself. *)
let push s ~tail ~head ~label ~w0 ~w1 =
  let ch = s.own in
  reserve_changes ch 1;
  ch.tail.(ch.len) <- tail;
  ch.head.(ch.len) <- head;
  ch.before.(ch.len) <- label +. w0;
  ch.after.(ch.len) <- label +. w1;
  ch.len <- ch.len + 1

let result r = if r < 0 then `Overflow else `Patched r

let repair_dist s ?budget ?(forbidden = -1) ~graph ~mirror ~source ~dist:d
    edits =
  let n = Digraph.n graph in
  let budget = match budget with Some b -> b | None -> default_budget n in
  if Array.length d < n then
    invalid_arg "Dynamic_sssp.repair_dist: dist array shorter than the graph";
  begin_dist_run s n;
  s.own.len <- 0;
  List.iter
    (fun e ->
      if e.u <> forbidden && e.v <> forbidden && e.v <> source
         && not (Float.equal e.w0 e.w1)
      then push s ~tail:e.u ~head:e.v ~label:d.(e.u) ~w0:e.w0 ~w1:e.w1)
    edits;
  result (repair_link s ~budget ~j:forbidden ~source ~graph ~mirror d s.own 0 s.own.len)

(* ------------------------------------------------------------------ *)
(* Tree repair                                                          *)

type t = {
  graph : Digraph.t;  (* the searched graph, aliased and caller-mutated *)
  mirror : Digraph.t;  (* its reverse, kept in lockstep by the caller *)
  src : int;
  mutable tr : Dijkstra.tree;  (* arrays exactly [Digraph.n graph]-sized *)
  (* children of the tree as doubly-linked sibling lists, for O(1)
     reparenting and orphan-subtree walks without an O(n) scan *)
  mutable cap : int;  (* capacity of the auxiliary arrays below *)
  mutable first_child : int array;
  mutable next_sib : int array;
  mutable prev_sib : int array;
  mutable mark : int array;
  mutable epoch : int;
  mutable region : int array;
  mutable n_region : int;
  mutable heap : Indexed_heap.t;
}

let source t = t.src
let tree t = t.tr

let build_children t =
  let n = Array.length t.tr.Dijkstra.parent in
  Array.fill t.first_child 0 t.cap (-1);
  Array.fill t.next_sib 0 t.cap (-1);
  Array.fill t.prev_sib 0 t.cap (-1);
  for v = n - 1 downto 0 do
    let p = t.tr.Dijkstra.parent.(v) in
    if p >= 0 then begin
      let h = t.first_child.(p) in
      t.next_sib.(v) <- h;
      if h >= 0 then t.prev_sib.(h) <- v;
      t.first_child.(p) <- v
    end
  done

let grow_aux t n =
  if n > t.cap then begin
    let c = max n (2 * t.cap) in
    t.first_child <- Array.make c (-1);
    t.next_sib <- Array.make c (-1);
    t.prev_sib <- Array.make c (-1);
    t.mark <- Array.make c 0;
    t.epoch <- 0;
    t.region <- Array.make c 0;
    t.heap <- Indexed_heap.create c;
    t.cap <- c
  end

let rebuild t =
  t.tr <- Dijkstra.link_weighted t.graph t.src;
  grow_aux t (Digraph.n t.graph);
  build_children t

let create ~graph ~mirror ~source =
  let n = Digraph.n graph in
  if Digraph.n mirror <> n then
    invalid_arg "Dynamic_sssp.create: mirror size mismatch";
  let tr = Dijkstra.link_weighted graph source in
  let c = max n 1 in
  let t =
    {
      graph;
      mirror;
      src = source;
      tr;
      cap = c;
      first_child = Array.make c (-1);
      next_sib = Array.make c (-1);
      prev_sib = Array.make c (-1);
      mark = Array.make c 0;
      epoch = 0;
      region = Array.make c 0;
      n_region = 0;
      heap = Indexed_heap.create c;
    }
  in
  build_children t;
  t

(* Detach [x] from its parent's child list ([parent.(x)] still valid). *)
let unlink t x =
  let p = t.tr.Dijkstra.parent.(x) in
  if p >= 0 then begin
    let nx = t.next_sib.(x) and px = t.prev_sib.(x) in
    if px >= 0 then t.next_sib.(px) <- nx else t.first_child.(p) <- nx;
    if nx >= 0 then t.prev_sib.(nx) <- px;
    t.next_sib.(x) <- -1;
    t.prev_sib.(x) <- -1
  end

(* Set [parent.(x) <- p] and push [x] onto [p]'s child list ([x] must be
   unlinked). *)
let link_child t x p =
  t.tr.Dijkstra.parent.(x) <- p;
  if p >= 0 then begin
    let h = t.first_child.(p) in
    t.next_sib.(x) <- h;
    t.prev_sib.(x) <- -1;
    if h >= 0 then t.prev_sib.(h) <- x;
    t.first_child.(p) <- x
  end

let reparent t x p =
  unlink t x;
  link_child t x p

(* Node growth ([Digraph.add_node]): extend the tree arrays to exactly
   the new node count (payment code copies [tree.dist] whole, so the
   arrays must never be oversized). *)
let grow_tree t n =
  let old = Array.length t.tr.Dijkstra.dist in
  if n > old then begin
    let dist = Array.make n infinity and parent = Array.make n (-1) in
    Array.blit t.tr.Dijkstra.dist 0 dist 0 old;
    Array.blit t.tr.Dijkstra.parent 0 parent 0 old;
    t.tr <- { Dijkstra.source = t.src; dist; parent };
    let cap_before = t.cap in
    grow_aux t n;
    (* a capacity bump replaces the sibling arrays wholesale: re-derive
       the child lists from the (unchanged) parent array *)
    if t.cap <> cap_before then build_children t
  end

type outcome =
  | Patched of { region : int }
  | Rebuilt of { reason : [ `Region | `Tie ] }

(* [y] keeps its label and its parent [x], which just re-derived it at a
   bit-equal candidate.  The from-scratch parent only flips to another
   predecessor [z] if [z] attains the same label AND settles before [x]
   — possible only when [dist z] ties [dist x] bit for bit (pop order
   respects distances strictly otherwise).  Region predecessors are
   checked when they settle; intact ones are checked here. *)
let check_attainer_tie t mcsr d x y =
  let dy = d.(y) and dx = d.(x) in
  let { Digraph.row_off; col; wgt } = mcsr in
  for i = row_off.(y) to row_off.(y + 1) - 1 do
    let z = Array.unsafe_get col i in
    if
      z <> x
      && t.mark.(z) <> t.epoch
      && d.(z) < infinity
      && Float.equal (d.(z) +. Array.unsafe_get wgt i) dy
      && Float.equal d.(z) dx
    then raise Tie
  done

let apply ?budget t edits =
  let n = Digraph.n t.graph in
  grow_tree t n;
  let budget = match budget with Some b -> b | None -> default_budget n in
  let gcsr = Digraph.csr t.graph in
  let mcsr = Digraph.csr t.mirror in
  let { Digraph.row_off = g_off; col = g_col; wgt = g_wgt } = gcsr in
  let { Digraph.row_off = m_off; col = m_col; wgt = m_wgt } = mcsr in
  let d = t.tr.Dijkstra.dist and par = t.tr.Dijkstra.parent in
  t.epoch <- t.epoch + 1;
  t.n_region <- 0;
  while not (Indexed_heap.is_empty t.heap) do
    ignore (Indexed_heap.pop_min_key t.heap)
  done;
  let edits = List.filter (fun e -> not (Float.equal e.w0 e.w1)) edits in
  let marked x = t.mark.(x) = t.epoch in
  let mark_node x =
    if not (marked x) then begin
      if t.n_region >= budget then raise Overflow;
      t.mark.(x) <- t.epoch;
      t.region.(t.n_region) <- x;
      t.n_region <- t.n_region + 1
    end
  in
  try
    (* 1. orphan the subtree under every risen/deleted tree link *)
    let stack = ref [] in
    List.iter
      (fun e ->
        if e.w1 > e.w0 && par.(e.v) = e.u && not (marked e.v) then begin
          stack := [ e.v ];
          while !stack <> [] do
            match !stack with
            | [] -> ()
            | x :: rest ->
              stack := rest;
              if not (marked x) then begin
                mark_node x;
                let c = ref t.first_child.(x) in
                while !c >= 0 do
                  stack := !c :: !stack;
                  c := t.next_sib.(!c)
                done
              end
          done
        end)
      edits;
    let n_orphans = t.n_region in
    for k = 0 to n_orphans - 1 do
      let x = t.region.(k) in
      unlink t x;
      par.(x) <- -1;
      d.(x) <- infinity
    done;
    (* 2. reseed each orphan from the intact boundary; two bit-equal
       best candidates mean the from-scratch parent depends on
       settlement order — fall back *)
    for k = 0 to n_orphans - 1 do
      let x = t.region.(k) in
      let best = ref infinity and best_p = ref (-1) and tied = ref false in
      for i = m_off.(x) to m_off.(x + 1) - 1 do
        let p = Array.unsafe_get m_col i in
        if not (marked p) then begin
          let dp = d.(p) in
          if dp < infinity then begin
            let cand = dp +. Array.unsafe_get m_wgt i in
            if cand < !best then begin
              best := cand;
              best_p := p;
              tied := false
            end
            else if Float.equal cand !best then tied := true
          end
        end
      done;
      if !best < infinity then begin
        if !tied then raise Tie;
        d.(x) <- !best;
        link_child t x !best_p;
        Indexed_heap.insert_or_decrease t.heap x !best
      end
    done;
    (* 3. dropped links whose tail kept its label *)
    List.iter
      (fun e ->
        if e.w1 < e.w0 && (not (marked e.u)) && d.(e.u) < infinity then begin
          let cand = d.(e.u) +. e.w1 in
          if cand < d.(e.v) then begin
            d.(e.v) <- cand;
            reparent t e.v e.u;
            Indexed_heap.insert_or_decrease t.heap e.v cand
          end
          else if Float.equal cand d.(e.v) && par.(e.v) <> e.u then raise Tie
        end)
      edits;
    (* 4. bounded-frontier Dijkstra with tie detection.  As in the
       distance-only repair, a live heap priority always equals the
       node's current label, so the key-only pop reads it from [d]. *)
    while not (Indexed_heap.is_empty t.heap) do
      let x = Indexed_heap.pop_min_key t.heap in
      let dx = d.(x) in
      mark_node x;
      for i = g_off.(x) to g_off.(x + 1) - 1 do
        let y = Array.unsafe_get g_col i in
        let cand = dx +. Array.unsafe_get g_wgt i in
        if cand < d.(y) then begin
          d.(y) <- cand;
          reparent t y x;
          Indexed_heap.insert_or_decrease t.heap y cand
        end
        else if Float.equal cand d.(y) then
          if par.(y) <> x then raise Tie
          else if not (marked y) then check_attainer_tie t mcsr d x y
      done
    done;
    Patched { region = t.n_region }
  with
  | Overflow ->
    rebuild t;
    Rebuilt { reason = `Region }
  | Tie ->
    rebuild t;
    Rebuilt { reason = `Tie }
