(* Flat CSR mirror of [out_adj]: row [u] occupies slots
   [row_off.(u) .. row_off.(u+1) - 1] of [col]/[wgt], sorted by target
   like the boxed rows.  [wgt] is a plain [float array], so the kernels
   read unboxed floats with no per-link tuple to chase. *)
type csr = {
  row_off : int array;  (* n + 1 entries *)
  col : int array;  (* m entries: link targets *)
  wgt : float array;  (* m entries: link weights, mutated in place *)
}

type t = {
  mutable out_adj : (int * float) array array; (* sorted by target *)
  mutable m : int;
  mutable version : int;
  mutable csr_cache : csr;  (* valid iff [csr_version = version] *)
  mutable csr_version : int;  (* -1: never built / structurally stale *)
}

let no_csr = { row_off = [||]; col = [||]; wgt = [||] }

let fresh out_adj m =
  { out_adj; m; version = 0; csr_cache = no_csr; csr_version = -1 }

(* ------------------------------------------------------------------ *)
(* Construction.

   Everything here is O(n + m) over int keys.  [create] sorts its
   finite triples by (src, dst) with a stable two-pass counting sort —
   by dst, then by src — so each row comes out sorted with its parallel
   links adjacent and in list order; one pass then merges them.
   [reverse] transposes the rows directly: walking sources in ascending
   order fills every reversed row already sorted. *)

let create ~n ~links =
  if n < 0 then invalid_arg "Digraph.create: negative node count";
  (* Validate in list order; count the finite links per dst and src.
     Slot [x + 1] counts key [x], so the prefix sums below turn each
     array into bucket starts. *)
  let by_dst = Array.make (n + 1) 0 and by_src = Array.make (n + 1) 0 in
  List.iter
    (fun (u, v, w) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Digraph.create: endpoint out of range";
      if u = v then invalid_arg "Digraph.create: self-loop";
      if Float.is_nan w || w < 0.0 then
        invalid_arg "Digraph.create: weight must be non-negative";
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
  let src = Array.make total 0 and w1 = Array.make total 0.0 in
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
  let dst = Array.make total 0 and w2 = Array.make total 0.0 in
  let p = ref 0 in
  for v = 0 to n - 1 do
    while !p < by_dst.(v) do
      let u = src.(!p) in
      let q = by_src.(u) in
      dst.(q) <- v;
      w2.(q) <- w1.(!p);
      by_src.(u) <- q + 1;
      incr p
    done
  done;
  (* Merge each row's parallel links in place: the minimum weight wins,
     and on equal weights the first in list order (which is what
     decides between a duplicate [0.0] and [-0.0]). *)
  let out_adj = Array.make n [||] and m = ref 0 and lo = ref 0 in
  for u = 0 to n - 1 do
    let hi = by_src.(u) and k = ref !lo in
    for q = !lo to hi - 1 do
      if !k > !lo && dst.(!k - 1) = dst.(q) then begin
        if w2.(q) < w2.(!k - 1) then w2.(!k - 1) <- w2.(q)
      end
      else begin
        dst.(!k) <- dst.(q);
        w2.(!k) <- w2.(q);
        incr k
      end
    done;
    let d = !k - !lo in
    if d > 0 then begin
      let row = Array.make d (0, 0.0) in
      for i = 0 to d - 1 do
        row.(i) <- (dst.(!lo + i), w2.(!lo + i))
      done;
      out_adj.(u) <- row;
      m := !m + d
    end;
    lo := hi
  done;
  fresh out_adj !m

let n g = Array.length g.out_adj

let m g = g.m

let out_links g u = g.out_adj.(u)

let out_degree g u = Array.length g.out_adj.(u)

(* Position of target [v] in the sorted row [a], or where it would go.
   The annotation keeps [<] an int comparison. *)
let lower_bound (a : (int * float) array) v =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if fst a.(mid) < v then lo := mid + 1 else hi := mid
  done;
  !lo

let weight g u v =
  let a = g.out_adj.(u) in
  let i = lower_bound a v in
  if i < Array.length a && fst a.(i) = v then snd a.(i) else infinity

(* Rows are sorted with unique targets, so row by row is already
   [compare] order on the triples. *)
let links g =
  let acc = ref [] in
  for u = Array.length g.out_adj - 1 downto 0 do
    let row = g.out_adj.(u) in
    for i = Array.length row - 1 downto 0 do
      let v, w = row.(i) in
      acc := (u, v, w) :: !acc
    done
  done;
  !acc

let reverse g =
  let n = n g in
  let fill = Array.make n 0 in
  Array.iter (Array.iter (fun (v, _) -> fill.(v) <- fill.(v) + 1)) g.out_adj;
  let out_adj = Array.map (fun d -> Array.make d (0, 0.0)) fill in
  Array.fill fill 0 n 0;
  for u = 0 to n - 1 do
    let row = g.out_adj.(u) in
    for i = 0 to Array.length row - 1 do
      let v, w = row.(i) in
      out_adj.(v).(fill.(v)) <- (u, w);
      fill.(v) <- fill.(v) + 1
    done
  done;
  fresh out_adj g.m

(* A fresh copy of row [a] without slot [i]. *)
let remove_at a i =
  let len = Array.length a in
  let b = Array.make (len - 1) (0, 0.0) in
  Array.blit a 0 b 0 i;
  Array.blit a (i + 1) b i (len - 1 - i);
  b

(* Row [a] without its link to [v] — a fresh row — or [a] itself when
   it has none (targets are unique, so there is at most one). *)
let without_target a v =
  let i = lower_bound a v in
  if i < Array.length a && fst a.(i) = v then remove_at a i else a

let silence_node g v =
  if v < 0 || v >= n g then invalid_arg "Digraph.silence_node: out of range";
  let out_adj = Array.copy g.out_adj in
  let removed = Array.length out_adj.(v) in
  out_adj.(v) <- [||];
  fresh out_adj (g.m - removed)

(* ------------------------------------------------------------------ *)
(* In-place mutation.

   The session engine owns a long-lived digraph and applies topology
   deltas to it directly instead of rebuilding O(n + m) state per edit.
   Every mutation bumps the version stamp, which downstream caches use
   to assert they were built against the graph they are consulted on.
   The immutable operations above are unaffected: they still return
   fresh graphs (at version 0, a new history). *)

let version g = g.version

let copy g =
  (* The CSR cache never travels: [set_weight] writes its [wgt] in
     place, so sharing it would couple the copies. *)
  fresh (Array.map Array.copy g.out_adj) g.m

(* ------------------------------------------------------------------ *)
(* CSR view.

   Built lazily from [out_adj] and memoized against the version stamp.
   [set_weight] on an existing link updates the cached [wgt] slot in
   place and moves the stamp forward with the graph, so steady cost
   drift — the session workload — never rebuilds; structural edits
   (insert/delete/add_node/detach_node) drop the cache and the next
   [csr] call pays one O(n + m) rebuild. *)

let rebuild_csr g =
  let n = Array.length g.out_adj in
  let row_off = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    row_off.(u + 1) <- row_off.(u) + Array.length g.out_adj.(u)
  done;
  let m = row_off.(n) in
  let col = Array.make (max m 1) 0 in
  let wgt = Array.make (max m 1) 0.0 in
  for u = 0 to n - 1 do
    let row = g.out_adj.(u) in
    let base = row_off.(u) in
    for i = 0 to Array.length row - 1 do
      let v, w = row.(i) in
      col.(base + i) <- v;
      wgt.(base + i) <- w
    done
  done;
  let c = { row_off; col; wgt } in
  g.csr_cache <- c;
  g.csr_version <- g.version;
  c

let csr g = if g.csr_version = g.version then g.csr_cache else rebuild_csr g

let invalidate_csr g = g.csr_version <- -1

(* Slot of link [u -> v] in the (valid) CSR, or -1: binary search of
   [col] within row [u] — the link→slot index [set_weight] writes
   through. *)
let csr_slot c u v =
  let lo = ref c.row_off.(u) and hi = ref c.row_off.(u + 1) in
  let found = ref (-1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let t = c.col.(mid) in
    if t = v then begin
      found := mid;
      lo := !hi
    end
    else if t < v then lo := mid + 1
    else hi := mid
  done;
  !found

let set_weight g u v w =
  let nn = n g in
  if u < 0 || u >= nn || v < 0 || v >= nn then
    invalid_arg "Digraph.set_weight: endpoint out of range";
  if u = v then invalid_arg "Digraph.set_weight: self-loop";
  if Float.is_nan w || w < 0.0 then
    invalid_arg "Digraph.set_weight: weight must be non-negative";
  let a = g.out_adj.(u) in
  let len = Array.length a in
  let i = lower_bound a v in
  let present = i < len && fst a.(i) = v in
  (if present then begin
     if w = infinity then begin
       (* delete *)
       g.out_adj.(u) <- remove_at a i;
       g.m <- g.m - 1;
       invalidate_csr g
     end
     else begin
       a.(i) <- (v, w);
       (* keep a valid CSR in lockstep: in-place weight write *)
       if g.csr_version = g.version then begin
         let s = csr_slot g.csr_cache u v in
         g.csr_cache.wgt.(s) <- w;
         g.csr_version <- g.version + 1
       end
     end
   end
   else if w < infinity then begin
     (* insert *)
     let b = Array.make (len + 1) (v, w) in
     Array.blit a 0 b 0 i;
     Array.blit a i b (i + 1) (len - i);
     g.out_adj.(u) <- b;
     g.m <- g.m + 1;
     invalidate_csr g
   end);
  g.version <- g.version + 1

let add_node g =
  let id = n g in
  let out_adj = Array.make (id + 1) [||] in
  Array.blit g.out_adj 0 out_adj 0 id;
  g.out_adj <- out_adj;
  invalidate_csr g;
  g.version <- g.version + 1;
  id

let detach_node g v =
  if v < 0 || v >= n g then invalid_arg "Digraph.detach_node: out of range";
  g.m <- g.m - Array.length g.out_adj.(v);
  g.out_adj.(v) <- [||];
  Array.iteri
    (fun u l ->
      let kept = without_target l v in
      if kept != l then begin
        g.m <- g.m - 1;
        g.out_adj.(u) <- kept
      end)
    g.out_adj;
  invalidate_csr g;
  g.version <- g.version + 1

let pp ppf g =
  Format.fprintf ppf "@[<v>digraph n=%d m=%d@," (n g) g.m;
  Array.iteri
    (fun u l ->
      Array.iter (fun (v, w) -> Format.fprintf ppf "  %d -> %d (%g)@," u v w) l)
    g.out_adj;
  Format.fprintf ppf "@]"
