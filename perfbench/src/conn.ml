(* The generator's end of one connection: a Unix socket to the server,
   or the pipe pair to the batch runner.  It does little work per op:
   text replies are scanned for the closing line, looking only at the
   head of each line, and never parsed. *)

exception Lost of string

type t = {
  rfd : Unix.file_descr;
  wfd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable len : int;  (** received bytes not yet consumed, from 0 *)
  mutable received : int;
  mutable sent : int;
}

let create ~rfd ~wfd =
  { rfd; wfd; buf = Bytes.create 65536; len = 0; received = 0; sent = 0 }

let lost e = raise (Lost (Unix.error_message e))

let write c s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring c.wfd s off (n - off))
  in
  (try go 0 with Unix.Unix_error (e, _, _) -> lost e);
  c.sent <- c.sent + n

let fill c =
  if c.len = Bytes.length c.buf then begin
    let b = Bytes.create (2 * c.len) in
    Bytes.blit c.buf 0 b 0 c.len;
    c.buf <- b
  end;
  let n =
    try Unix.read c.rfd c.buf c.len (Bytes.length c.buf - c.len)
    with Unix.Unix_error (e, _, _) -> lost e
  in
  if n = 0 then raise (Lost "connection closed by peer");
  c.len <- c.len + n;
  c.received <- c.received + n

let has_prefix c pos p =
  let k = String.length p in
  pos + k <= c.len
  &&
  let rec eq i = i = k || (Bytes.unsafe_get c.buf (pos + i) = p.[i] && eq (i + 1)) in
  eq 0

(* Reads text lines up to the first that starts with [prefix], or up to
   an [err] line with at least [err_after] lines before it, and returns
   that line, with the count of [err] lines read and, when [keep], every
   line read. *)
let text_until ?(keep = false) ?(err_after = max_int) c ~prefix =
  let errs = ref 0 and found = ref None and kept = ref [] and lines = ref 0 in
  let line_start = ref 0 and i = ref 0 in
  while Option.is_none !found do
    if !i >= c.len then fill c
    else begin
      if Bytes.unsafe_get c.buf !i = '\n' then begin
        let ls = !line_start in
        let err = has_prefix c ls "err" in
        if err then incr errs;
        if keep then kept := Bytes.sub_string c.buf ls (!i - ls) :: !kept;
        if has_prefix c ls prefix || (err && !lines >= err_after) then
          found := Some (Bytes.sub_string c.buf ls (!i - ls));
        incr lines;
        line_start := !i + 1
      end;
      incr i
    end
  done;
  Bytes.blit c.buf !line_start c.buf 0 (c.len - !line_start);
  c.len <- c.len - !line_start;
  (Option.get !found, !errs, List.rev !kept)

(* Decodes binary replies up to the first for which [stop] holds;
   returns it with the count of [err] replies before it. *)
let bin_until c dec view ~stop =
  let errs = ref 0 in
  let rec loop () =
    match Wnet_proto_bin.decode_response dec view with
    | `Resp r ->
      (match r with Wnet_proto.Err _ -> incr errs | _ -> ());
      if stop r then r else loop ()
    | `Need_more ->
      if c.len = 0 then fill c;
      Wnet_proto_bin.dec_feed dec c.buf 0 c.len;
      c.len <- 0;
      loop ()
    | `Corrupt m -> raise (Lost ("corrupt frame: " ^ m))
  in
  let r = loop () in
  (r, !errs)
