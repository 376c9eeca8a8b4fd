(* The three workloads: their instances and their seeded op streams.

   Every instance is a paper UDG (2000 m square, 300 m range) from
   [Udg.generate_connected], so every node is served from root 0.  An
   edit re-declares an element's original cost times U[0.9, 1.1], so the
   topology does not drift over a run. *)

open Wnet_graph

type kind = Serve_link_text | Serve_node_bin | Batch_link_cold

let all = [ Serve_link_text; Serve_node_bin; Batch_link_cold ]

let name = function
  | Serve_link_text -> "serve-link-text"
  | Serve_node_bin -> "serve-node-bin"
  | Batch_link_cold -> "batch-link-cold"

let of_name s = List.find_opt (fun k -> name k = s) all

(* Sizes are set so that a 15 s run completes well over the 1000 ops a
   p99 needs, and the run with the replay that checks it takes about
   30 s (see README.md). *)
let nodes = function
  | Serve_link_text -> 200
  | Serve_node_bin -> 600
  | Batch_link_cold -> 200

let edits_per_op = 32
let batch_instances = 16

(* The served workloads keep one instance for every seed: at these
   sizes, the cost of an op differs by about ten per cent from one UDG
   to the next, which would swamp the run-to-run spread.  The seed
   draws the edit stream.  The batch workload cycles through sixteen
   instances drawn from the seed, which averages that difference out. *)
let served_instance_seed = 1

let root = 0

let udg rng ~n =
  match
    Wnet_topology.Udg.generate_connected rng
      ~region:Wnet_geom.Region.paper_region ~n ~range:300.0 ~max_tries:1000
  with
  | Some t -> t
  | None -> failwith (Printf.sprintf "no connected UDG with n = %d" n)

let link_instance_rng rng ~n =
  Wnet_topology.Udg.link_graph (udg rng ~n)
    ~model:(Wnet_geom.Power.path_loss_only ~kappa:2.0)

let link_instance ~seed ~n = link_instance_rng (Wnet_prng.Rng.create seed) ~n

let node_instance ~seed ~n =
  let rng = Wnet_prng.Rng.create seed in
  let t = udg rng ~n in
  Wnet_topology.Udg.node_graph t
    ~costs:(Wnet_topology.Udg.uniform_node_costs rng ~n ~lo:1.0 ~hi:10.0)

(* The link-cost file format, weights printed so that they parse back
   to the same float. *)
let digraph_text g =
  let b = Buffer.create (32 * Digraph.m g) in
  for v = 0 to Digraph.n g - 1 do
    Printf.bprintf b "node %d 0\n" v
  done;
  List.iter
    (fun (u, v, w) -> Printf.bprintf b "link %d %d %.17g\n" u v w)
    (Digraph.links g);
  Buffer.contents b

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

(* One op: the bytes written in one go, and the edits they carry as
   (element, new cost) — an element is an index into the instance's
   link array, or a node. *)
type op = { bytes : string; edits : (int * float) array }

(* Elements and original costs of a served instance, as parsed from its
   file: the server, the replay and the reference all start from it.  A
   link instance is its node count and its links. *)
type served = Link of int * (int * int * float) array | Node of Graph.t

let link_ops ~seed links =
  let rng = Wnet_prng.Rng.create seed in
  fun () ->
    let edits =
      Array.init edits_per_op (fun _ ->
          let i = Wnet_prng.Rng.int rng (Array.length links) in
          let _, _, w = links.(i) in
          (i, w *. Wnet_prng.Rng.float_range rng 0.9 1.1))
    in
    let b = Buffer.create 1024 in
    Array.iter
      (fun (i, w) ->
        let u, v, _ = links.(i) in
        Buffer.add_string b (Wnet_proto.print_request (Wnet_proto.Cost_link { u; v; w }));
        Buffer.add_char b '\n')
      edits;
    Buffer.add_string b (Wnet_proto.print_request Wnet_proto.Pay);
    Buffer.add_char b '\n';
    { bytes = Buffer.contents b; edits }

let node_ops ~seed g =
  let rng = Wnet_prng.Rng.create seed in
  let enc = Wnet_proto_bin.enc_create () in
  fun () ->
    let k = 1 + Wnet_prng.Rng.int rng (Graph.n g - 1) in
    let cost = Graph.cost g k *. Wnet_prng.Rng.float_range rng 0.9 1.1 in
    Wnet_proto_bin.enc_reset enc;
    Wnet_proto_bin.encode_request enc (Wnet_proto.Cost_node { node = k; cost });
    Wnet_proto_bin.encode_request enc Wnet_proto.Pay;
    let bytes =
      Bytes.sub_string (Wnet_proto_bin.enc_buffer enc)
        (Wnet_proto_bin.enc_offset enc)
        (Wnet_proto_bin.enc_pending enc)
    in
    { bytes; edits = [| (k, cost) |] }

(* The op stream of a served instance: a seed always gives the same
   request bytes. *)
let served_ops ~seed = function
  | Link (_, links) -> link_ops ~seed links
  | Node g -> node_ops ~seed g
