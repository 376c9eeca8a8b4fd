(* Spans recorded around the benchmark's calls into each layer, kept in
   arrays allocated up front and written out once at exit.  A span has
   an op id, a name, the index of the span that encloses it (-1 for
   none) and its start and end on the monotonic clock, in ns. *)

type name =
  | Op
  | Decode
  | Handle
  | Encode
  | Apply
  | Flush
  | Pay
  | All_to_root
  | Overpayment

let name_string = function
  | Op -> "op"
  | Decode -> "proto.decode"
  | Handle -> "proto.handle"
  | Encode -> "proto.encode"
  | Apply -> "session.apply"
  | Flush -> "session.flush"
  | Pay -> "session.pay"
  | All_to_root -> "core.all_to_root"
  | Overpayment -> "core.overpayment"

type t = {
  on : bool;
  op : int array;
  name : name array;
  parent : int array;
  start : int array;
  stop : int array;
  mutable len : int;
  mutable cur : int;  (* innermost open span, -1 when none *)
  mutable op_id : int;
}

let create ~on ~cap =
  let cap = if on then cap else 0 in
  {
    on;
    op = Array.make cap 0;
    name = Array.make cap Op;
    parent = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    len = 0;
    cur = -1;
    op_id = 0;
  }

let off = create ~on:false ~cap:0

let set_op t i = t.op_id <- i

(* [enter] returns the span's slot, [leave] closes it; -1 when spans are
   off.  Running out of slots is a harness error. *)
let enter t n =
  if not t.on then -1
  else begin
    let i = t.len in
    if i = Array.length t.op then failwith "trace: span buffer full";
    t.len <- i + 1;
    t.op.(i) <- t.op_id;
    t.name.(i) <- n;
    t.parent.(i) <- t.cur;
    t.cur <- i;
    t.start.(i) <- Measure.now_ns ();
    i
  end

let leave t i =
  if i >= 0 then begin
    t.stop.(i) <- Measure.now_ns ();
    t.cur <- t.parent.(i)
  end

let span t n f =
  let i = enter t n in
  match f () with
  | r ->
    leave t i;
    r
  | exception e ->
    leave t i;
    raise e

(* Total and self time of every span with this name over the ops, in
   ns (op -1, the warm-up, is left out): self time is the span's
   duration minus the time its child spans cover. *)
let total t n =
  let s = ref 0 in
  for i = 0 to t.len - 1 do
    if t.op.(i) >= 0 && t.name.(i) = n then s := !s + (t.stop.(i) - t.start.(i))
  done;
  !s

let self t n =
  let s = ref 0 in
  for i = 0 to t.len - 1 do
    if t.op.(i) >= 0 then begin
      let d = t.stop.(i) - t.start.(i) in
      if t.name.(i) = n then s := !s + d;
      let p = t.parent.(i) in
      if p >= 0 && t.name.(p) = n then s := !s - d
    end
  done;
  !s

let write t path =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "span\top\tname\tparent\tstart_ns\tend_ns\n";
      for i = 0 to t.len - 1 do
        Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\t%d\n" i t.op.(i)
          (name_string t.name.(i))
          t.parent.(i) t.start.(i) t.stop.(i)
      done)
