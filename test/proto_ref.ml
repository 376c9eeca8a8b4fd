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

(* The request parser the in-place reader of [cost] and [pay] lines
   sits in front of, kept verbatim (the tokenizer, then a match on the
   token list) as the reference it is held to. *)

let ( let* ) = Result.bind

let tokens line =
  String.split_on_char ' '
    (String.map (fun c -> if c = '\t' then ' ' else c) line)
  |> List.filter (fun t -> t <> "")

let int_tok what s =
  match int_of_string_opt s with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "%s: bad integer %S" what s)

let float_tok what s =
  match float_of_string_opt s with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "%s: bad number %S" what s)

let endpoint_tok what s =
  let bad () =
    Error (Printf.sprintf "%s: bad endpoint %S (want NODE:WEIGHT)" what s)
  in
  match String.index_opt s ':' with
  | None -> bad ()
  | Some i -> (
    let v = String.sub s 0 i
    and w = String.sub s (i + 1) (String.length s - i - 1) in
    match (int_of_string_opt v, float_of_string_opt w) with
    | Some v, Some w -> Ok (v, w)
    | _ -> bad ())

let rec endpoints what = function
  | [] -> Ok []
  | t :: rest ->
    let* e = endpoint_tok what t in
    let* es = endpoints what rest in
    Ok (e :: es)

let rec split_dash what acc = function
  | [] ->
    Error
      (Printf.sprintf "%s: missing `--' separating out-links from in-links"
         what)
  | "--" :: rest -> Ok (List.rev acc, rest)
  | t :: rest -> split_dash what (t :: acc) rest

let links what rest =
  let* outs, inns = split_dash what [] rest in
  let* out = endpoints what outs in
  let* inn = endpoints what inns in
  Ok (out, inn)

let parse_request line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then Ok None
  else
    let req =
      match tokens line with
      | [ "cost"; a; b ] ->
        let* node = int_tok "cost" a in
        let* cost = float_tok "cost" b in
        Ok (P.Cost_node { node; cost })
      | [ "cost"; a; b; c ] ->
        let* u = int_tok "cost" a in
        let* v = int_tok "cost" b in
        let* w = float_tok "cost" c in
        Ok (P.Cost_link { u; v; w })
      | "cost" :: _ -> Error "cost: want `cost NODE COST' or `cost U V W'"
      | "join" :: rest ->
        let* out, inn = links "join" rest in
        Ok (P.Join { out; inn })
      | "rejoin" :: k :: rest ->
        let* node = int_tok "rejoin" k in
        let* out, inn = links "rejoin" rest in
        Ok (P.Rejoin { node; out; inn })
      | [ "rejoin" ] -> Error "rejoin: want `rejoin NODE v:w ... -- u:w ...'"
      | [ "leave"; k ] ->
        let* node = int_tok "leave" k in
        Ok (P.Leave { node })
      | "leave" :: _ -> Error "leave: want `leave NODE'"
      | [ "pay" ] -> Ok P.Pay
      | [ "stats" ] -> Ok P.Stats
      | [ "proto"; p ] ->
        let* proto = int_tok "proto" p in
        Ok (P.Proto { proto })
      | "proto" :: _ -> Error "proto: want `proto N'"
      | [ "session"; k ] ->
        let* session = int_tok "session" k in
        Ok (P.Attach { session })
      | "session" :: _ -> Error "session: want `session N'"
      | [ "quit" ] | [ "exit" ] -> Ok P.Quit
      | t :: _ -> Error (Printf.sprintf "unknown request %S" t)
      | [] -> Error "empty request"
    in
    Result.map Option.some req

let endpoint_str (v, w) = Printf.sprintf "%d:%s" v (float_to_string w)
