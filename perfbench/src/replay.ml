(* The in-process replay: the public calls the server makes for an op,
   in the order it makes them, with a span around each call into a
   layer.  The untraced replay passes [Trace.off]. *)

open Wnet_graph

(* A session wrapper that records a span around apply, flush and pay.
   [pay] flushes first so that the coalesced repair and the payment
   assembly get separate spans; the session's own pay would run the
   same flush, so the work and the counters are unchanged. *)
let traced_session tr (module B : Wnet_session.S) : (module Wnet_session.S) =
  (module struct
    let model = B.model
    let root = B.root
    let domains = B.domains
    let n = B.n
    let version = B.version
    let stats = B.stats
    let apply d = Trace.span tr Trace.Apply (fun () -> B.apply d)
    let flush () = Trace.span tr Trace.Flush B.flush

    let pay () =
      flush ();
      Trace.span tr Trace.Pay B.pay
  end)

(* What one op's replies amount to. *)
type reply = {
  mutable pay : Wnet_proto.response list;  (** the reply to the op's pay *)
  mutable bytes : int;  (** reply bytes, as the server renders them *)
  mutable errors : int;  (** [err] replies *)
}

let new_reply () = { pay = []; bytes = 0; errors = 0 }

let note r rs =
  List.iter
    (function
      | Wnet_proto.Err _ -> r.errors <- r.errors + 1
      | Wnet_proto.Paid _ -> r.pay <- rs
      | _ -> ())
    rs

(* The server's text rendering of a reply list. *)
let render rs =
  String.concat "" (List.map (fun r -> Wnet_proto.print_response r ^ "\n") rs)

(* One text op: each line is parsed, handled and rendered in turn. *)
let text_op tr session op =
  let r = new_reply () in
  let pos = ref 0 in
  while !pos < String.length op do
    let nl = String.index_from op !pos '\n' in
    let line = String.sub op !pos (nl - !pos) in
    pos := nl + 1;
    match Trace.span tr Trace.Decode (fun () -> Wnet_proto.parse_request line) with
    | Ok (Some req) ->
      let rs = Trace.span tr Trace.Handle (fun () -> Wnet_proto.handle session req) in
      let text = Trace.span tr Trace.Encode (fun () -> render rs) in
      r.bytes <- r.bytes + String.length text;
      note r rs
    | Ok None -> ()
    | Error _ -> r.errors <- r.errors + 1
  done;
  r

(* One binary op: frames are decoded, handled and encoded in turn. *)
type codec = {
  dec : Wnet_proto_bin.dec;
  view : Wnet_proto_bin.view;
  enc : Wnet_proto_bin.enc;
}

let codec () =
  {
    dec = Wnet_proto_bin.dec_create ();
    view = Wnet_proto_bin.make_view ();
    enc = Wnet_proto_bin.enc_create ();
  }

let bin_op tr session c op =
  let r = new_reply () in
  Wnet_proto_bin.dec_feed_string c.dec op 0 (String.length op);
  let rec loop () =
    match Trace.span tr Trace.Decode (fun () -> Wnet_proto_bin.decode_request c.dec c.view) with
    | `Req req ->
      let rs = Trace.span tr Trace.Handle (fun () -> Wnet_proto.handle session req) in
      Trace.span tr Trace.Encode (fun () -> Wnet_proto_bin.encode_responses c.enc rs);
      r.bytes <- r.bytes + Wnet_proto_bin.enc_pending c.enc;
      Wnet_proto_bin.enc_reset c.enc;
      note r rs;
      loop ()
    | `Need_more -> ()
    | `Corrupt _ -> r.errors <- r.errors + 1
  in
  loop ();
  r

let paid r =
  List.find_map
    (function
      | Wnet_proto.Paid { served; unbounded; total } -> Some (served, unbounded, total)
      | _ -> None)
    r.pay

let charges r =
  List.filter_map
    (function Wnet_proto.Served { src; charge; _ } -> Some (src, charge) | _ -> None)
    r.pay

(* The batch op: the per-instance work of Fig. 3, summarised as one
   line that the runner sends and the generator checks. *)
type batch = {
  served : int;
  unbounded : int;
  total : float;
  samples : int;
  hash : int;  (** over every source's charge and every sample *)
}

let batch_op tr g =
  let b = Trace.span tr Trace.All_to_root (fun () -> Wnet_core.Link_cost.all_to_root g ~root:0) in
  let samples = Trace.span tr Trace.Overpayment (fun () -> Wnet_core.Overpayment.of_link_batch b) in
  let hash = ref 0x0bf29ce484222325 in
  let mix x = hash := (!hash lxor x) * 0x100000001b3 in
  let bits f = Int64.to_int (Int64.bits_of_float f) in
  let served = ref 0 and unbounded = ref 0 and total = ref 0.0 in
  Array.iter
    (function
      | None -> ()
      | Some (r : Wnet_core.Link_cost.t) ->
        let c = Wnet_core.Link_cost.total_payment r in
        incr served;
        if c < infinity then total := !total +. c else incr unbounded;
        mix r.src;
        mix (bits c))
    b.Wnet_core.Link_cost.results;
  List.iter
    (fun (s : Wnet_core.Overpayment.sample) ->
      mix s.source;
      mix (bits s.payment);
      mix (bits s.lcp_cost);
      mix s.hops)
    samples;
  {
    served = !served;
    unbounded = !unbounded;
    total = !total;
    samples = List.length samples;
    hash = !hash;
  }

let batch_line b =
  Printf.sprintf "ok served=%d unbounded=%d total=%s samples=%d hash=%x" b.served
    b.unbounded (Wnet_proto.float_to_string b.total) b.samples b.hash

(* The batch runner: parses its instance files (its set-up), says
   [ready], then answers [op K] with the summary of instance K, [stats]
   with its byte counts, and stops on [quit] or end of input. *)
let runner files =
  let gs = Array.of_list (List.map Graph_io.parse_digraph_file files) in
  let bytes_in = ref 0 and bytes_out = ref 0 in
  let reply s =
    print_string s;
    print_char '\n';
    flush stdout;
    bytes_out := !bytes_out + String.length s + 1
  in
  reply "ready";
  let rec loop () =
    match In_channel.input_line stdin with
    | None | Some "quit" -> ()
    | Some line ->
      bytes_in := !bytes_in + String.length line + 1;
      (match String.split_on_char ' ' line with
      | [ "op"; k ] -> reply (batch_line (batch_op Trace.off gs.(int_of_string k)))
      | [ "stats" ] -> reply (Printf.sprintf "stats bytes_in=%d bytes_out=%d" !bytes_in !bytes_out)
      | _ -> reply ("err " ^ line));
      loop ()
  in
  loop ()
