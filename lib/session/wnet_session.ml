module Link_session = Link_session
module Node_session = Node_session

type model = [ `Node | `Link ]

type stats = Link_session.stats = {
  edits : int;
  coalesced_edits : int;
  inval_passes : int;
  spt_runs : int;
  avoid_runs : int;
  avoid_reused : int;
  repaired_entries : int;
  fallback_recomputes : int;
  tasks_executed : int;
  tasks_stolen : int;
  avoid_bounded : int;
  avoid_fallback : int;
}

(* The stats wire layout, one row per counter: key, getter, setter.
   Both directions of the text protocol derive from this table
   (Wnet_proto prints `ok k=v ...` from [to_fields] and rebuilds the
   record through [of_fields]), so adding a counter is one row here —
   not an arity case in every parser.  Rows are in wire order. *)
let stats_layout :
    (string * (stats -> int) * (stats -> int -> stats)) array =
  [|
    ("edits", (fun s -> s.edits), fun s v -> { s with edits = v });
    ( "coalesced",
      (fun s -> s.coalesced_edits),
      fun s v -> { s with coalesced_edits = v } );
    ( "inval_passes",
      (fun s -> s.inval_passes),
      fun s v -> { s with inval_passes = v } );
    ("spt_runs", (fun s -> s.spt_runs), fun s v -> { s with spt_runs = v });
    ( "avoid_runs",
      (fun s -> s.avoid_runs),
      fun s v -> { s with avoid_runs = v } );
    ( "avoid_reused",
      (fun s -> s.avoid_reused),
      fun s v -> { s with avoid_reused = v } );
    ( "repaired",
      (fun s -> s.repaired_entries),
      fun s v -> { s with repaired_entries = v } );
    ( "fallbacks",
      (fun s -> s.fallback_recomputes),
      fun s v -> { s with fallback_recomputes = v } );
    ( "tasks",
      (fun s -> s.tasks_executed),
      fun s v -> { s with tasks_executed = v } );
    ( "stolen",
      (fun s -> s.tasks_stolen),
      fun s v -> { s with tasks_stolen = v } );
    ( "avoid_bounded",
      (fun s -> s.avoid_bounded),
      fun s v -> { s with avoid_bounded = v } );
    ( "avoid_fallback",
      (fun s -> s.avoid_fallback),
      fun s v -> { s with avoid_fallback = v } );
  |]

let zero_stats =
  {
    edits = 0;
    coalesced_edits = 0;
    inval_passes = 0;
    spt_runs = 0;
    avoid_runs = 0;
    avoid_reused = 0;
    repaired_entries = 0;
    fallback_recomputes = 0;
    tasks_executed = 0;
    tasks_stolen = 0;
    avoid_bounded = 0;
    avoid_fallback = 0;
  }

let stats_field_names = Array.map (fun (k, _, _) -> k) stats_layout

let to_fields st =
  Array.to_list (Array.map (fun (k, get, _) -> (k, get st)) stats_layout)

let of_fields values =
  let rec go st i = function
    | [] when i = Array.length stats_layout -> Ok st
    | v :: rest when i < Array.length stats_layout ->
      let _, _, set = stats_layout.(i) in
      go (set st v) (i + 1) rest
    | _ ->
      Error
        (Printf.sprintf "stats: want %d counters, got %d"
           (Array.length stats_layout) (List.length values))
  in
  go zero_stats 0 values

type delta =
  | Set_node_cost of { node : int; cost : float }
  | Set_link_cost of { u : int; v : int; w : float }
  | Join of { out : (int * float) list; inn : (int * float) list }
  | Rejoin of { node : int; out : (int * float) list; inn : (int * float) list }
  | Leave of { node : int }

type ack = { version : int; node : int option }

type pay = {
  mutable count : int;
  mutable src : int array;
  mutable off : int array;
  mutable hops : int array;
  mutable charge : float array;
  mutable unbounded : int;
  mutable total : float;
}

module type S = sig
  val model : model
  val root : int
  val domains : int
  val n : unit -> int
  val version : unit -> int
  val apply : delta -> ack
  val pay : unit -> pay
  val flush : unit -> unit
  val stats : unit -> stats
end

(* The protocol-level pay view, refilled in place from a payment pass:
   one entry per reachable non-root source in ascending id, its path
   written straight into [hops] up the tree's parent chain (source
   first, root last), a charge of [infinity] marking a monopoly
   (cut-vertex) relay on it.  The total adds the finite charges in
   ascending source order.  The arrays only grow: once they fit the
   session, a refill allocates nothing but [total]'s box. *)
let empty_pay () =
  {
    count = 0;
    src = [||];
    off = [| 0 |];
    hops = [||];
    charge = [||];
    unbounded = 0;
    total = 0.0;
  }

let grow_hops p need =
  let cap = ref (max 64 (Array.length p.hops)) in
  while !cap < need do
    cap := 2 * !cap
  done;
  let hops = Array.make !cap 0 in
  Array.blit p.hops 0 hops 0 (Array.length p.hops);
  p.hops <- hops

(* [src], [off] and [hops]: what the tree's parents determine. *)
let fill_paths p ~root (tree : Wnet_graph.Dijkstra.tree) =
  let n = Array.length tree.parent in
  if Array.length p.src < n then begin
    p.src <- Array.make n 0;
    p.charge <- Array.make n 0.0;
    p.off <- Array.make (n + 1) 0
  end;
  let parent = tree.parent and top = tree.source in
  let count = ref 0 and pos = ref 0 in
  for s = 0 to n - 1 do
    if s <> root && Wnet_graph.Dijkstra.reachable tree s then begin
      let i = !count in
      p.src.(i) <- s;
      p.off.(i) <- !pos;
      let u = ref s in
      while !u <> top do
        if !pos >= Array.length p.hops then grow_hops p (!pos + 1);
        p.hops.(!pos) <- !u;
        incr pos;
        u := parent.(!u)
      done;
      if !pos >= Array.length p.hops then grow_hops p (!pos + 1);
      p.hops.(!pos) <- top;
      incr pos;
      count := i + 1
    end
  done;
  p.off.(!count) <- !pos;
  p.count <- !count

(* [charge], [unbounded] and [total], for the sources [src] lists. *)
let fill_charges p charge =
  let unbounded = ref 0 and total = ref 0.0 in
  for i = 0 to p.count - 1 do
    let c = charge.(p.src.(i)) in
    p.charge.(i) <- c;
    if c < infinity then total := !total +. c else incr unbounded
  done;
  p.unbounded <- !unbounded;
  p.total <- !total

let fresh_pay ~root ((tree : Wnet_graph.Dijkstra.tree), charge) =
  let p = empty_pay () in
  fill_paths p ~root tree;
  fill_charges p charge;
  p

(* A session's view, with the engine's tree index its paths were
   filled under: the engine keeps that index while no parent moves (most
   bursts move labels, not parents), and then only the charges are
   refilled. *)
type view = { pay : pay; mutable paths_of : Wnet_graph.Avoid_region.index option }

let new_view () = { pay = empty_pay (); paths_of = None }

let fill v ~root ~idx ((tree : Wnet_graph.Dijkstra.tree), charge) =
  (match v.paths_of with
  | Some i when i == idx -> ()
  | _ ->
    fill_paths v.pay ~root tree;
    v.paths_of <- Some idx);
  fill_charges v.pay charge;
  v.pay

(* Left to right from [0.0], exactly as [Array.fold_left ( +. ) 0.0],
   so the result is bit-identical; but the local float ref stays
   unboxed, where the polymorphic fold boxes the accumulator and every
   element it reads. *)
let sum_payments p =
  let s = ref 0.0 in
  for i = 0 to Array.length p - 1 do
    s := !s +. Array.unsafe_get p i
  done;
  !s

(* Ascending relay id by repeated selection of the next larger id:
   paths are short and their nodes distinct, and nothing is allocated. *)
let relay_charge (path : Wnet_graph.Path.t) relay_pay =
  let r = Array.length relay_pay in
  let s = ref 0.0 and last = ref (-1) in
  for _ = 1 to r do
    let next = ref (-1) in
    for i = 0 to r - 1 do
      let k = path.(i + 1) in
      if k > !last && (!next < 0 || k < path.(!next + 1)) then next := i
    done;
    s := !s +. relay_pay.(!next);
    last := path.(!next + 1)
  done;
  !s

let relay_payment (path : Wnet_graph.Path.t) relay_pay v =
  let rec find i =
    if i >= Array.length relay_pay then 0.0
    else if path.(i + 1) = v then relay_pay.(i)
    else find (i + 1)
  in
  find 0

(* Shard-safe ownership: a session's mutable engine state (topology,
   caches, pending-edit buffers) is single-owner by design.  The sharded
   server relies on this — each session lives on exactly one shard
   domain — so the packaged instance binds to the first domain that
   mutates it and refuses edits, flushes and payment runs from any
   other, turning a placement bug into an immediate failure instead of
   a silent data race.  (Read-only accessors stay unguarded: the shard
   roll-up may snapshot counters, and the greeting reads n/root.) *)
let ownership_guard () =
  let owner = ref None in
  fun () ->
    let me = Domain.self () in
    match !owner with
    | None -> owner := Some me
    | Some d when d = me -> ()
    | Some _ ->
      failwith "session: used from a foreign domain (shard ownership violated)"

let make ?(pool = Wnet_par.sequential) ~root g =
  let own = ownership_guard () in
  match g with
  | `Node g ->
    let module NS = Node_session in
    let s = NS.create ~pool g ~root in
    (module struct
      let model = `Node
      let root = root
      let domains = Wnet_par.size pool
      let n () = NS.n s
      let version () = NS.version s

      let apply_delta = function
        | Set_node_cost { node; cost } ->
          NS.set_cost s node cost;
          { version = NS.version s; node = None }
        | Set_link_cost _ ->
          failwith "cost: node model takes `cost NODE COST'"
        | Join _ -> failwith "join: link model only"
        | Rejoin _ -> failwith "rejoin: link model only"
        | Leave { node } ->
          NS.remove_node s node;
          { version = NS.version s; node = None }

      let apply d =
        own ();
        apply_delta d

      let view = new_view ()

      let pay () =
        own ();
        let pass = NS.charges s in
        fill view ~root ~idx:(NS.tree_index s) pass

      let flush () =
        own ();
        NS.flush s

      let stats () = NS.stats s
    end : S)
  | `Link g ->
    let module LS = Link_session in
    let s = LS.create ~pool g ~root in
    (module struct
      let model = `Link
      let root = root
      let domains = Wnet_par.size pool
      let n () = LS.n s
      let version () = LS.version s

      let apply_delta = function
        | Set_link_cost { u; v; w } ->
          LS.set_cost s u v w;
          { version = LS.version s; node = None }
        | Set_node_cost _ -> failwith "cost: link model takes `cost U V W'"
        | Join { out; inn } ->
          let id = LS.add_node s ~out ~inn in
          { version = LS.version s; node = Some id }
        | Rejoin { node; out; inn } ->
          LS.rejoin_node s node ~out ~inn;
          { version = LS.version s; node = None }
        | Leave { node } ->
          LS.remove_node s node;
          { version = LS.version s; node = None }

      let apply d =
        own ();
        apply_delta d

      let view = new_view ()

      let pay () =
        own ();
        let pass = LS.charges s in
        fill view ~root ~idx:(LS.tree_index s) pass

      let flush () =
        own ();
        LS.flush s
      let stats () = LS.stats s
    end : S)
