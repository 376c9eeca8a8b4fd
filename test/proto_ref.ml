(* The Printf reply printer the text encoder replaced, kept verbatim as
   the reference its bytes are held to.  No code from lib/proto. *)

module P = Wnet_proto

(* Shortest decimal form that parses back bit-identically: %.12g covers
   every weight arising from the short decimal inputs the tools emit,
   %.17g is exact for any double.  "inf"/"nan" round-trip through
   float_of_string as-is. *)
let float_to_string f =
  let s = Printf.sprintf "%.12g" f in
  if Float.equal (float_of_string s) f then s else Printf.sprintf "%.17g" f

let model_str = function `Node -> "node" | `Link -> "link"

let print_response : P.response -> string = function
  | P.Ready { proto; model; n; root; domains } ->
    Printf.sprintf "ready proto=%d model=%s n=%d root=%d domains=%d" proto
      (model_str model) n root domains
  | P.Ack { version; node = None } -> Printf.sprintf "ok version=%d" version
  | P.Ack { version; node = Some id } ->
    Printf.sprintf "ok node=%d version=%d" id version
  | P.Served { src; path; charge } ->
    Printf.sprintf "src %d: path %s, charge %s" src
      (String.concat " -> " (List.map string_of_int path))
      (float_to_string charge)
  | P.Paid { served; unbounded; total } ->
    Printf.sprintf "ok served=%d unbounded=%d total=%s" served unbounded
      (float_to_string total)
  | P.Session_stats st ->
    (* Printed from the layout table, so a counter added to
       [Wnet_session.stats_layout] appears here without touching the
       printer; byte-identical to the historical printf form. *)
    String.concat " "
      ("ok"
      :: List.map
           (fun (k, v) -> Printf.sprintf "%s=%d" k v)
           (Wnet_session.to_fields st))
  | P.Server_stats
      {
        clients;
        requests;
        edits;
        coalesced;
        cache_hits;
        cache_misses;
        bytes_in;
        bytes_out;
      } ->
    Printf.sprintf
      "server clients=%d requests=%d edits=%d coalesced=%d cache_hits=%d \
       cache_misses=%d bytes_in=%d bytes_out=%d"
      clients requests edits coalesced cache_hits cache_misses bytes_in
      bytes_out
  | P.Shard_stats
      {
        shard;
        conns;
        requests;
        edits;
        coalesced;
        inval_passes;
        cache_hits;
        cache_misses;
        repaired;
        tasks;
        stolen;
        bytes_in;
        bytes_out;
      } ->
    Printf.sprintf
      "shard id=%d conns=%d requests=%d edits=%d coalesced=%d \
       inval_passes=%d cache_hits=%d cache_misses=%d repaired=%d tasks=%d \
       stolen=%d bytes_in=%d bytes_out=%d"
      shard conns requests edits coalesced inval_passes cache_hits
      cache_misses repaired tasks stolen bytes_in bytes_out
  | P.Conn_stats { requests; bytes_in; bytes_out; proto } ->
    Printf.sprintf "conn requests=%d bytes_in=%d bytes_out=%d proto=%d"
      requests bytes_in bytes_out proto
  | P.Bye -> "bye"
  | P.Err "" -> "err"
  | P.Err m -> "err " ^ m
