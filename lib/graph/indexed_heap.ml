(* Classic array-based binary heap augmented with a position index so that
   decrease-key is O(log n).  [pos.(k) = -1] encodes absence.  Ties on
   priority are broken by the smaller key so that heap-order (and thus
   Dijkstra parent choices downstream) is deterministic: keys are unique,
   so (priority, key) orders them totally and every pop returns the same
   key whatever the slots hold.

   Each slot keeps its key's priority beside it ([slot_prio]), so a sift
   compares floats read from the slots it walks rather than through the
   key, and it moves a hole instead of swapping: the moving key is
   written once, where it lands.  The sifts read the moving key's
   priority themselves (from [prio], or from the last slot): classic
   ocamlopt boxes a float passed to a call it does not inline, and the
   Dijkstra kernels must not allocate. *)

type t = {
  keys : int array;      (* heap slots: keys, in heap order *)
  slot_prio : float array;  (* slot_prio.(i) = priority of keys.(i) *)
  prio : float array;    (* prio.(k) = priority of key k, if present *)
  pos : int array;       (* pos.(k) = slot of key k, or -1 *)
  mutable size : int;
}

let create capacity =
  if capacity < 0 then invalid_arg "Indexed_heap.create: negative capacity";
  {
    keys = Array.make (max capacity 1) 0;
    slot_prio = Array.make (max capacity 1) 0.0;
    prio = Array.make (max capacity 1) 0.0;
    pos = Array.make (max capacity 1) (-1);
    size = 0;
  }

let size h = h.size

let is_empty h = h.size = 0

let mem h k = k >= 0 && k < Array.length h.pos && h.pos.(k) >= 0

let priority h k = if mem h k then h.prio.(k) else raise Not_found

(* Place key [k], at priority [prio.(k)], by moving a hole up from slot
   [i] (its own slot, or the first free one) past every ancestor that
   orders after it.  Slots below [size] only: no bounds checks. *)
let sift_up h i k =
  let keys = h.keys and sp = h.slot_prio and pos = h.pos in
  let p = Array.unsafe_get h.prio k in
  let i = ref i and moving = ref true in
  while !moving && !i > 0 do
    let up = (!i - 1) lsr 1 in
    let q = Array.unsafe_get sp up and kq = Array.unsafe_get keys up in
    if p < q || (p = q && k < kq) then begin
      Array.unsafe_set keys !i kq;
      Array.unsafe_set sp !i q;
      Array.unsafe_set pos kq !i;
      i := up
    end
    else moving := false
  done;
  Array.unsafe_set keys !i k;
  Array.unsafe_set sp !i p;
  Array.unsafe_set pos k !i

let insert h k p =
  if k < 0 || k >= Array.length h.pos then
    invalid_arg "Indexed_heap.insert: key out of range";
  if h.pos.(k) >= 0 then invalid_arg "Indexed_heap.insert: key already present";
  let i = h.size in
  h.size <- i + 1;
  h.prio.(k) <- p;
  sift_up h i k

let decrease h k p =
  if not (mem h k) then invalid_arg "Indexed_heap.decrease: key absent";
  if p > h.prio.(k) then
    invalid_arg "Indexed_heap.decrease: new priority is larger";
  h.prio.(k) <- p;
  sift_up h h.pos.(k) k

let insert_or_decrease h k p =
  if mem h k then begin
    if p < h.prio.(k) then decrease h k p
  end
  else insert h k p

(* Int-only hot-path entry points.  Classic (non-flambda) ocamlopt refuses
   to inline [insert]/[decrease] across modules (their bodies reference
   structured constants — the [invalid_arg] strings), so every call boxes
   the float priority argument: ~2 minor words per heap update, which is
   fatal for the zero-allocation Dijkstra kernels.  [prios] hands the
   caller the internal priority store; after writing [prios h].(k) the
   caller re-establishes heap order with the all-int [touch]. *)

let prios h = h.prio

let touch h k =
  let i = h.pos.(k) in
  if i >= 0 then sift_up h i k
  else begin
    let i = h.size in
    h.size <- i + 1;
    sift_up h i k
  end

(* Take the root, then move a hole down from slot 0 along the smaller
   children past every one that orders before the last slot's key, and
   put that key where the hole stops. *)
let pop_min_key h =
  if h.size = 0 then raise Not_found;
  let keys = h.keys and sp = h.slot_prio and pos = h.pos in
  let top = Array.unsafe_get keys 0 in
  let n = h.size - 1 in
  h.size <- n;
  Array.unsafe_set pos top (-1);
  if n > 0 then begin
    let k = Array.unsafe_get keys n and p = Array.unsafe_get sp n in
    let i = ref 0 and moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 in
      if l >= n then moving := false
      else begin
        let r = l + 1 in
        let c =
          if r < n then begin
            let pl = Array.unsafe_get sp l and pr = Array.unsafe_get sp r in
            if pr < pl || (pr = pl && Array.unsafe_get keys r < Array.unsafe_get keys l)
            then r
            else l
          end
          else l
        in
        let q = Array.unsafe_get sp c and kc = Array.unsafe_get keys c in
        if q < p || (q = p && kc < k) then begin
          Array.unsafe_set keys !i kc;
          Array.unsafe_set sp !i q;
          Array.unsafe_set pos kc !i;
          i := c
        end
        else moving := false
      end
    done;
    Array.unsafe_set keys !i k;
    Array.unsafe_set sp !i p;
    Array.unsafe_set pos k !i
  end;
  top

let pop_min h =
  if h.size = 0 then raise Not_found;
  let p = h.slot_prio.(0) in
  let k = pop_min_key h in
  (k, p)

let peek_min h = if h.size = 0 then None else Some (h.keys.(0), h.slot_prio.(0))
