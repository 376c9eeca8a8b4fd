(* The storage is flat CSR: row [u] occupies slots
   [row_off.(u) .. row_off.(u+1) - 1] of [col]/[wgt], sorted by target
   with unique targets, and [col]/[wgt] hold exactly [m] slots.  [wgt]
   is a plain [float array], so readers get unboxed floats with no
   per-link tuple to chase.  A weight update writes its slot in place;
   an insert, a delete, a node's growth or detachment installs a fresh
   record, so a view taken before a structural edit keeps describing
   the graph as it was. *)
type csr = {
  row_off : int array;  (* n + 1 entries *)
  col : int array;  (* m entries: link targets *)
  wgt : float array;  (* m entries: link weights, written in place *)
}

type t = { mutable c : csr; mutable version : int }

let fresh c = { c; version = 0 }

let n g = Array.length g.c.row_off - 1

let m g = Array.length g.c.col

let csr g = g.c

let version g = g.version

let check ~what n u v w =
  if u < 0 || u >= n || v < 0 || v >= n then
    invalid_arg (what ^ ": endpoint out of range");
  if u = v then invalid_arg (what ^ ": self-loop");
  if Float.is_nan w || w < 0.0 then
    invalid_arg (what ^ ": weight must be non-negative")

(* ------------------------------------------------------------------ *)
(* Construction.

   Everything here is O(n + m) over int keys.  [create] sorts its
   finite triples by (src, dst) with a stable two-pass counting sort —
   by dst, then by src — so each row comes out sorted with its parallel
   links adjacent and in list order; one pass then merges them, writing
   the rows straight into the storage.  [reverse] transposes: walking
   sources in ascending order fills every reversed row already
   sorted. *)

let create ~n ~links =
  if n < 0 then invalid_arg "Digraph.create: negative node count";
  (* Validate in list order; count the finite links per dst and src.
     Slot [x + 1] counts key [x], so the prefix sums below turn each
     array into bucket starts. *)
  let by_dst = Array.make (n + 1) 0 and by_src = Array.make (n + 1) 0 in
  List.iter
    (fun (u, v, w) ->
      check ~what:"Digraph.create" n u v w;
      if w < infinity then begin
        by_dst.(v + 1) <- by_dst.(v + 1) + 1;
        by_src.(u + 1) <- by_src.(u + 1) + 1
      end)
    links;
  for x = 1 to n do
    by_dst.(x) <- by_dst.(x) + by_dst.(x - 1);
    by_src.(x) <- by_src.(x) + by_src.(x - 1)
  done;
  let total = by_src.(n) in
  (* Pass 1, by dst in list order.  Filling advances each bucket start
     to its end, so afterwards [by_dst.(v)] ends bucket [v]. *)
  let src = Array.make total 0 and w1 = Array.create_float total in
  List.iter
    (fun (u, v, w) ->
      if w < infinity then begin
        let p = by_dst.(v) in
        src.(p) <- u;
        w1.(p) <- w;
        by_dst.(v) <- p + 1
      end)
    links;
  (* Pass 2, stable by src: [by_src.(u)] likewise ends row [u]. *)
  let col = Array.make total 0 and wgt = Array.create_float total in
  let p = ref 0 in
  for v = 0 to n - 1 do
    while !p < by_dst.(v) do
      let u = src.(!p) in
      let q = by_src.(u) in
      col.(q) <- v;
      wgt.(q) <- w1.(!p);
      by_src.(u) <- q + 1;
      incr p
    done
  done;
  (* Merge each row's parallel links while packing the rows to the
     front: the minimum weight wins, and on equal weights the first in
     list order (which is what decides between a duplicate [0.0] and
     [-0.0]).  The write cursor never passes the read cursor. *)
  let row_off = Array.make (n + 1) 0 and k = ref 0 and lo = ref 0 in
  for u = 0 to n - 1 do
    let first = !k in
    for q = !lo to by_src.(u) - 1 do
      if !k > first && col.(!k - 1) = col.(q) then begin
        if wgt.(q) < wgt.(!k - 1) then wgt.(!k - 1) <- wgt.(q)
      end
      else begin
        col.(!k) <- col.(q);
        wgt.(!k) <- wgt.(q);
        incr k
      end
    done;
    row_off.(u + 1) <- !k;
    lo := by_src.(u)
  done;
  let m = !k in
  if m = total then fresh { row_off; col; wgt }
  else fresh { row_off; col = Array.sub col 0 m; wgt = Array.sub wgt 0 m }

let out_degree g u = g.c.row_off.(u + 1) - g.c.row_off.(u)

(* Where target [v] sits in row [u], or where it would go. *)
let lower_bound c u v =
  let lo = ref c.row_off.(u) and hi = ref c.row_off.(u + 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if c.col.(mid) < v then lo := mid + 1 else hi := mid
  done;
  !lo

let slot g u v =
  let c = g.c in
  let i = lower_bound c u v in
  if i < c.row_off.(u + 1) && c.col.(i) = v then i else -1

let weight g u v =
  let i = slot g u v in
  if i >= 0 then g.c.wgt.(i) else infinity

(* Rows are sorted with unique targets, so row by row is already
   [compare] order on the triples. *)
let links g =
  let { row_off; col; wgt } = g.c in
  let acc = ref [] in
  for u = Array.length row_off - 2 downto 0 do
    for i = row_off.(u + 1) - 1 downto row_off.(u) do
      acc := (u, col.(i), wgt.(i)) :: !acc
    done
  done;
  !acc

let reverse g =
  let { row_off; col; wgt } = g.c in
  let n = Array.length row_off - 1 and m = Array.length col in
  (* [off.(v)] counts, then starts, then (as the fill cursor) ends
     reversed row [v]; one shift turns the ends back into starts. *)
  let off = Array.make (n + 1) 0 in
  for i = 0 to m - 1 do
    off.(col.(i) + 1) <- off.(col.(i) + 1) + 1
  done;
  for v = 1 to n do
    off.(v) <- off.(v) + off.(v - 1)
  done;
  let rcol = Array.make m 0 and rwgt = Array.create_float m in
  for u = 0 to n - 1 do
    for i = row_off.(u) to row_off.(u + 1) - 1 do
      let v = col.(i) in
      let p = off.(v) in
      rcol.(p) <- u;
      rwgt.(p) <- wgt.(i);
      off.(v) <- p + 1
    done
  done;
  for v = n downto 1 do
    off.(v) <- off.(v - 1)
  done;
  off.(0) <- 0;
  fresh { row_off = off; col = rcol; wgt = rwgt }

(* An undirected graph's rows are already sorted with unique targets,
   and its reverse has the same rows: only the weights differ.  Both
   orientations share [g]'s [row_off] and [col], which nothing here
   writes in place (a structural edit installs fresh arrays). *)
let node_view g ~root =
  let n = Graph.n g in
  if root < 0 || root >= n then invalid_arg "Digraph.node_view: root out of range";
  let { Graph.row_off; col } = Graph.csr g in
  let m = row_off.(n) in
  let col = if Array.length col = m then col else Array.sub col 0 m in
  let cost = Graph.costs_view g in
  let fwd = Array.create_float m and rev = Array.create_float m in
  for u = 0 to n - 1 do
    let leave = if u = root then 0.0 else cost.(u) in
    for i = row_off.(u) to row_off.(u + 1) - 1 do
      let v = col.(i) in
      fwd.(i) <- (if v = root then 0.0 else cost.(v));
      rev.(i) <- leave
    done
  done;
  (fresh { row_off; col; wgt = fwd }, fresh { row_off; col; wgt = rev })

(* Rebuild [c] with [k] edits that each insert or delete a link:
   [eu]/[ev]/[ew] in (src, dst) order with unique pairs, [at.(e)] the
   slot of the link or where it would go, [ew.(e) = infinity] a delete.
   Rows are contiguous, so the slots are ascending along the edits, and
   everything between two edits moves by one blit. *)
let splice c k (eu : int array) (ev : int array) (ew : float array) (at : int array) =
  let n = Array.length c.row_off - 1 and m = Array.length c.col in
  let dm = ref 0 in
  for e = 0 to k - 1 do
    if ew.(e) < infinity then incr dm else decr dm
  done;
  let col = Array.make (m + !dm) 0 and wgt = Array.create_float (m + !dm) in
  let r = ref 0 and p = ref 0 in
  for e = 0 to k - 1 do
    let len = at.(e) - !r in
    Array.blit c.col !r col !p len;
    Array.blit c.wgt !r wgt !p len;
    p := !p + len;
    r := at.(e);
    if ew.(e) < infinity then begin
      col.(!p) <- ev.(e);
      wgt.(!p) <- ew.(e);
      incr p
    end
    else incr r
  done;
  Array.blit c.col !r col !p (m - !r);
  Array.blit c.wgt !r wgt !p (m - !r);
  (* row [x] moves by the net change of the edits in rows before it *)
  let row_off = Array.make (n + 1) 0 and shift = ref 0 and e = ref 0 in
  for x = 0 to n do
    while !e < k && eu.(!e) < x do
      (if ew.(!e) < infinity then incr shift else decr shift);
      incr e
    done;
    row_off.(x) <- c.row_off.(x) + !shift
  done;
  { row_off; col; wgt }

(* [v]'s out-links deleted, as one splice. *)
let silence_node g v =
  if v < 0 || v >= n g then invalid_arg "Digraph.silence_node: out of range";
  let c = g.c in
  let lo = c.row_off.(v) and d = out_degree g v in
  fresh
    (splice c d (Array.make d v) (Array.sub c.col lo d) (Array.make d infinity)
       (Array.init d (fun i -> lo + i)))

(* ------------------------------------------------------------------ *)
(* In-place mutation.

   The session engine owns a long-lived digraph and applies topology
   deltas to it directly.  Every mutation bumps the version stamp,
   which downstream caches use to assert they were built against the
   graph they are consulted on.  A weight update writes its [wgt] slot
   and allocates nothing; an insert or a delete rebuilds the arrays in
   O(n + m) through [splice], and {!set_weights} folds any number of
   them into one.  The immutable operations above are unaffected: they
   still return fresh graphs (at version 0, a new history). *)

let copy g =
  let { row_off; col; wgt } = g.c in
  fresh { row_off = Array.copy row_off; col = Array.copy col; wgt = Array.copy wgt }

let set_weight g u v w =
  check ~what:"Digraph.set_weight" (n g) u v w;
  let c = g.c in
  let i = lower_bound c u v in
  let present = i < c.row_off.(u + 1) && c.col.(i) = v in
  if present && w < infinity then c.wgt.(i) <- w
  else if present || w < infinity then g.c <- splice c 1 [| u |] [| v |] [| w |] [| i |];
  g.version <- g.version + 1

let set_weights g links =
  let nn = n g in
  List.iter (fun (u, v, w) -> check ~what:"Digraph.set_weights" nn u v w) links;
  let e = Array.of_list links in
  (* a stable sort keeps a pair's entries in list order: the last wins *)
  Array.stable_sort
    (fun (u, v, _) (u', v', _) -> if u <> u' then Int.compare u u' else Int.compare v v')
    e;
  let c = g.c in
  let len = Array.length e in
  let eu = Array.make len 0 and ev = Array.make len 0 in
  let ew = Array.create_float len and at = Array.make len 0 in
  let k = ref 0 in
  Array.iteri
    (fun j (u, v, w) ->
      let last =
        j + 1 = len
        || (let u', v', _ = e.(j + 1) in
            u' <> u || v' <> v)
      in
      if last then begin
        let i = lower_bound c u v in
        let present = i < c.row_off.(u + 1) && c.col.(i) = v in
        if present && w < infinity then c.wgt.(i) <- w
        else if present || w < infinity then begin
          (* a delete or an insert *)
          eu.(!k) <- u;
          ev.(!k) <- v;
          ew.(!k) <- w;
          at.(!k) <- i;
          incr k
        end
      end)
    e;
  if !k > 0 then g.c <- splice c !k eu ev ew at;
  g.version <- g.version + len

let add_node g =
  let c = g.c in
  let id = n g in
  let row_off = Array.make (id + 2) 0 in
  Array.blit c.row_off 0 row_off 0 (id + 1);
  row_off.(id + 1) <- c.row_off.(id);
  g.c <- { c with row_off };
  g.version <- g.version + 1;
  id

let detach_node g v =
  if v < 0 || v >= n g then invalid_arg "Digraph.detach_node: out of range";
  let { row_off; col; wgt } = g.c in
  let nn = Array.length row_off - 1 and m = Array.length col in
  let into = ref 0 in
  for i = 0 to m - 1 do
    if col.(i) = v then incr into
  done;
  let m' = m - (row_off.(v + 1) - row_off.(v)) - !into in
  let col' = Array.make m' 0 and wgt' = Array.create_float m' in
  let off = Array.make (nn + 1) 0 and p = ref 0 in
  for u = 0 to nn - 1 do
    if u <> v then
      for i = row_off.(u) to row_off.(u + 1) - 1 do
        if col.(i) <> v then begin
          col'.(!p) <- col.(i);
          wgt'.(!p) <- wgt.(i);
          incr p
        end
      done;
    off.(u + 1) <- !p
  done;
  g.c <- { row_off = off; col = col'; wgt = wgt' };
  g.version <- g.version + 1

let pp ppf g =
  let { row_off; col; wgt } = g.c in
  Format.fprintf ppf "@[<v>digraph n=%d m=%d@," (n g) (m g);
  for u = 0 to n g - 1 do
    for i = row_off.(u) to row_off.(u + 1) - 1 do
      Format.fprintf ppf "  %d -> %d (%g)@," u col.(i) wgt.(i)
    done
  done;
  Format.fprintf ppf "@]"
