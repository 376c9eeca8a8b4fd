(* Probes that call lib/graph's and lib/core's public kernels on an op's
   own graph, beside the op rather than inside it, and time each call. *)

open Wnet_graph

type t = {
  mutable graphs : int;
  mutable reverse_ns : int;
  mutable spt_ns : int;
  mutable avoid_ns : int;
  mutable relays : int;
  mutable region_nodes : int;
  mutable overflows : int;
  mutable all_to_root_ns : int;
  mutable overpayment_ns : int;
}

let create () =
  {
    graphs = 0;
    reverse_ns = 0;
    spt_ns = 0;
    avoid_ns = 0;
    relays = 0;
    region_nodes = 0;
    overflows = 0;
    all_to_root_ns = 0;
    overpayment_ns = 0;
  }

let timed f =
  let t0 = Measure.now_ns () in
  let r = f () in
  (r, Measure.now_ns () - t0)

let relays (tree : Dijkstra.tree) =
  let n = Array.length tree.parent in
  let is_relay = Array.make n false in
  Array.iteri
    (fun v p -> if v <> tree.source && p >= 0 && p <> tree.source then is_relay.(p) <- true)
    tree.parent;
  List.filter (fun k -> is_relay.(k)) (List.init n Fun.id)

(* [fill] runs the avoidance kernel for one relay and returns the region
   size, or -1 on overflow. *)
let avoid t tree fill =
  let ks = relays tree in
  let (), ns =
    timed (fun () ->
        let idx = Avoid_region.make_index tree in
        List.iter
          (fun k ->
            let r = fill idx k in
            if r >= 0 then t.region_nodes <- t.region_nodes + r
            else t.overflows <- t.overflows + 1)
          ks)
  in
  t.avoid_ns <- t.avoid_ns + ns;
  t.relays <- t.relays + List.length ks

let link t g =
  let n = Digraph.n g in
  let rev, ns = timed (fun () -> Digraph.reverse g) in
  t.reverse_ns <- t.reverse_ns + ns;
  let tree, ns = timed (fun () -> Dijkstra.link_weighted rev 0) in
  t.spt_ns <- t.spt_ns + ns;
  let ds = Dynamic_sssp.make_dist_scratch n and dist = Array.make n 0.0 in
  avoid t tree (fun idx k ->
      Avoid_region.link_avoid ds idx ~graph:rev ~mirror:g ~tree ~avoid:k ~dist);
  let b, ns = timed (fun () -> Wnet_core.Link_cost.all_to_root g ~root:0) in
  t.all_to_root_ns <- t.all_to_root_ns + ns;
  let _, ns = timed (fun () -> Wnet_core.Overpayment.of_link_batch b) in
  t.overpayment_ns <- t.overpayment_ns + ns;
  t.graphs <- t.graphs + 1

let node t g =
  let n = Graph.n g in
  let tree, ns = timed (fun () -> Dijkstra.node_weighted g ~source:0) in
  t.spt_ns <- t.spt_ns + ns;
  let ds = Dynamic_sssp.make_dist_scratch n and dist = Array.make n 0.0 in
  avoid t tree (fun idx k -> Avoid_region.node_avoid ds idx ~graph:g ~tree ~avoid:k ~dist);
  let b, ns = timed (fun () -> Wnet_core.Unicast.all_to_root g ~root:0) in
  t.all_to_root_ns <- t.all_to_root_ns + ns;
  let _, ns =
    timed (fun () -> Wnet_core.Overpayment.of_unicast (List.filter_map Fun.id (Array.to_list b)))
  in
  t.overpayment_ns <- t.overpayment_ns + ns;
  t.graphs <- t.graphs + 1
