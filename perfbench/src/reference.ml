(* An independent, naive reference for all-to-root VCG payments, written
   from the paper's formula and sharing no code with lib/'s payment
   engines: one Dijkstra per relay, each on a freshly copied adjacency
   with the relay removed, then p_k = ||P_-k|| - ||P|| + d_k summed over
   the relays k of each source's least-cost path P.  In the link model
   d_k is the weight of the link k transmits on; in the node model it is
   k's declared cost. *)

(* A binary min-heap of (distance, node) with lazy deletion. *)
module Heap = struct
  type t = { mutable d : float array; mutable v : int array; mutable len : int }

  let create () = { d = Array.make 64 0.0; v = Array.make 64 0; len = 0 }

  let swap h i j =
    let d = h.d.(i) and v = h.v.(i) in
    h.d.(i) <- h.d.(j);
    h.v.(i) <- h.v.(j);
    h.d.(j) <- d;
    h.v.(j) <- v

  let push h d v =
    if h.len = Array.length h.d then begin
      h.d <- Array.append h.d (Array.make h.len 0.0);
      h.v <- Array.append h.v (Array.make h.len 0)
    end;
    h.d.(h.len) <- d;
    h.v.(h.len) <- v;
    let i = ref h.len in
    h.len <- h.len + 1;
    while !i > 0 && h.d.((!i - 1) / 2) > h.d.(!i) do
      swap h !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let pop h =
    let d = h.d.(0) and v = h.v.(0) in
    h.len <- h.len - 1;
    h.d.(0) <- h.d.(h.len);
    h.v.(0) <- h.v.(h.len);
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      let r = l + 1 in
      let m = ref !i in
      if l < h.len && h.d.(l) < h.d.(!m) then m := l;
      if r < h.len && h.d.(r) < h.d.(!m) then m := r;
      if !m = !i then continue := false
      else begin
        swap h !i !m;
        i := !m
      end
    done;
    (d, v)
end

(* Shortest distances from [root] over [adj] (target, weight) lists,
   where leaving node [u] also costs [leave u]; parents give each node's
   next hop back towards [root]. *)
let dijkstra adj ~leave ~root =
  let n = Array.length adj in
  let dist = Array.make n infinity and parent = Array.make n (-1) in
  let done_ = Array.make n false in
  let h = Heap.create () in
  dist.(root) <- 0.0;
  Heap.push h 0.0 root;
  while h.Heap.len > 0 do
    let d, u = Heap.pop h in
    if not done_.(u) then begin
      done_.(u) <- true;
      let du = d +. leave u in
      List.iter
        (fun (v, w) ->
          let c = du +. w in
          if c < dist.(v) then begin
            dist.(v) <- c;
            parent.(v) <- u;
            Heap.push h c v
          end)
        adj.(u)
    end
  done;
  (dist, parent)

type result = {
  charges : float array;  (** per source; [nan] when not served *)
  served : int;
  unbounded : int;
  total : float;  (** sum of the finite charges *)
}

(* The relays of the tree are the next hops that are not the root. *)
let relays ~root parent =
  let is_relay = Array.make (Array.length parent) false in
  Array.iteri (fun v p -> if v <> root && p >= 0 && p <> root then is_relay.(p) <- true) parent;
  List.filter (fun k -> is_relay.(k)) (List.init (Array.length parent) Fun.id)

let assemble ~root ~dist ~parent ~avoid ~d =
  let n = Array.length dist in
  let charges = Array.make n nan in
  let served = ref 0 and unbounded = ref 0 and total = ref 0.0 in
  for s = 0 to n - 1 do
    if s <> root && dist.(s) < infinity then begin
      let charge = ref 0.0 and k = ref parent.(s) in
      while !k <> root do
        charge := !charge +. ((avoid !k).(s) -. dist.(s) +. d !k);
        k := parent.(!k)
      done;
      charges.(s) <- !charge;
      incr served;
      if !charge < infinity then total := !total +. !charge else incr unbounded
    end
  done;
  { charges; served = !served; unbounded = !unbounded; total = !total }

(* Link model: [links] are directed (u, v, w) declarations.  Distances
   to the root are distances from it over reversed links. *)
let link ~n ~root links =
  let reversed ~silenced =
    let adj = Array.make n [] in
    Array.iter (fun (u, v, w) -> if u <> silenced then adj.(v) <- (u, w) :: adj.(v)) links;
    adj
  in
  let dist, parent = dijkstra (reversed ~silenced:(-1)) ~leave:(fun _ -> 0.0) ~root in
  let avoid = Array.make n [||] in
  List.iter
    (fun k -> avoid.(k) <- fst (dijkstra (reversed ~silenced:k) ~leave:(fun _ -> 0.0) ~root))
    (relays ~root parent);
  let weight = Hashtbl.create (Array.length links) in
  Array.iter (fun (u, v, w) -> Hashtbl.replace weight (u, v) w) links;
  assemble ~root ~dist ~parent ~avoid:(Array.get avoid)
    ~d:(fun k -> Hashtbl.find weight (k, parent.(k)))

(* Node model: undirected [edges], relay costs [costs]; the root's own
   cost never enters a path. *)
let node ~root ~costs edges =
  let n = Array.length costs in
  let adjacency ~removed =
    let adj = Array.make n [] in
    Array.iter
      (fun (u, v) ->
        if u <> removed && v <> removed then begin
          adj.(u) <- (v, 0.0) :: adj.(u);
          adj.(v) <- (u, 0.0) :: adj.(v)
        end)
      edges;
    adj
  in
  let leave u = if u = root then 0.0 else costs.(u) in
  let dist, parent = dijkstra (adjacency ~removed:(-1)) ~leave ~root in
  let avoid = Array.make n [||] in
  List.iter
    (fun k -> avoid.(k) <- fst (dijkstra (adjacency ~removed:k) ~leave ~root))
    (relays ~root parent);
  assemble ~root ~dist ~parent ~avoid:(Array.get avoid) ~d:(Array.get costs)

(* Agreement within 1e-9, relative. *)
let close a b =
  a = b
  || Float.is_finite a && Float.is_finite b
     && Float.abs (a -. b) <= 1e-9 *. Float.max (Float.abs a) (Float.abs b)
