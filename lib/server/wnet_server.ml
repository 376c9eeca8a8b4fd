(* The sharded socket server: Listener (accept) -> Router (place) ->
   Shard (serve).  This module is the assembly: it wires the three
   composable pieces together and keeps the one-call [run] entry for
   front-ends that just want "serve these sessions on this address".

   The structure per shard count:
   - shards = 1 (fused): the single shard's loop also selects the
     listening fd and accepts inline — one thread, one loop, exactly
     the historical single-threaded server.
   - shards > 1: one domain per shard runs {!Shard.run}; the calling
     thread runs the {!Listener.run} accept loop, handing fresh
     connections to the owning shard over SPSC mailboxes. *)

module Spsc = Spsc
module Router = Router
module Shard = Shard
module Listener = Listener

type addr = Listener.addr =
  | Unix_path of string
  | Tcp of { host : string; port : int }

type shard_stats = Shard.stats = {
  shard : int;
  conns : int;
  served : int;
  requests : int;
  edits : int;
  coalesced : int;
  inval_passes : int;
  cache_hits : int;
  cache_misses : int;
  repaired : int;
  tasks : int;
  stolen : int;
  bytes_in : int;
  bytes_out : int;
}

type server_stats = {
  clients : int;
  clients_served : int;
  requests : int;
  bytes_in : int;
  bytes_out : int;
  per_shard : shard_stats array;
}

type t = {
  sh : Shard.shared;
  listener : Listener.t;
}

let create ?(backlog = 16) ?idle_timeout ?(shards = 1) ?router bound sessions
    =
  let router =
    match router with
    | None -> Router.hash ~shards
    | Some r ->
      if Router.shards r <> shards then
        invalid_arg "Wnet_server.create: router sized for a different shard \
                     count";
      r
  in
  let listener = Listener.bind ~backlog bound in
  let sh =
    try Shard.make_shared ~nshards:shards ~router ~idle_timeout ~sessions
    with e ->
      Listener.close listener;
      Listener.unlink listener;
      raise e
  in
  { sh; listener }

let addr t = Listener.addr t.listener
let shutdown t = Shard.stop t.sh

let install_signals t =
  let h = Sys.Signal_handle (fun _ -> shutdown t) in
  Sys.set_signal Sys.sigint h;
  Sys.set_signal Sys.sigterm h

let stats t : server_stats =
  let rows = Shard.snapshot t.sh in
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 rows in
  {
    clients = sum (fun (r : shard_stats) -> r.conns);
    clients_served = sum (fun (r : shard_stats) -> r.served);
    requests = sum (fun (r : shard_stats) -> r.requests);
    bytes_in = sum (fun (r : shard_stats) -> r.bytes_in);
    bytes_out = sum (fun (r : shard_stats) -> r.bytes_out);
    per_shard = rows;
  }

let serve t =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  if Shard.nshards t.sh = 1 then begin
    (* Fused: no separate accept loop to wait for. *)
    Shard.listener_done t.sh;
    Shard.run ~listen_fd:(Listener.fd t.listener) t.sh 0;
    Listener.close t.listener
  end
  else begin
    let domains =
      List.init (Shard.nshards t.sh) (fun i ->
          Domain.spawn (fun () -> Shard.run t.sh i))
    in
    Listener.run t.listener t.sh;
    Listener.close t.listener;
    (* Shards keep looping until the listener is known to have stopped
       handing connections off, then drain. *)
    Shard.listener_done t.sh;
    List.iter Domain.join domains
  end;
  Listener.unlink t.listener;
  Shard.close_shared t.sh

let run ?backlog ?idle_timeout ?(shards = 1) ?router ?(signals = false)
    ?on_listen bound sessions =
  let t = create ?backlog ?idle_timeout ~shards ?router bound sessions in
  if signals then install_signals t;
  (match on_listen with None -> () | Some f -> f t);
  serve t;
  stats t
