(* Binary wire codec (proto=2) for the Wnet_proto grammar.

   Layout: every frame is [payload_len:u32le][count:u16le][count
   messages], each message a tag byte followed by fixed-width
   little-endian fields.  Floats travel as their IEEE-754 bit pattern
   (Int64.bits_of_float), so round-trips are bitwise exact with no
   decimal printing involved.  The hot-path encode/decode of fixed-size
   messages performs no allocation: the encoder appends into a
   preallocated growable Bytes and the decoder fills a caller-owned
   mutable [view] whose only float slot is an unboxed float array cell.

   A decoder waits until a frame is complete before yielding messages,
   so there is no partial-message state; the frame length is capped
   (max_frame) to bound buffering against hostile peers.  Framing
   errors are sticky: once a frame is corrupt the byte stream cannot be
   resynchronised, and every later decode_next reports the same error. *)

let version = 2
let max_frame = 1 lsl 20 (* payload bytes per frame *)
let max_batch = 0xffff

(* Message tags: requests 0x01.., responses 0x41.. *)
let tag_cost_node = 0x01
let tag_cost_link = 0x02
let tag_join = 0x03
let tag_rejoin = 0x04
let tag_leave = 0x05
let tag_pay = 0x06
let tag_stats = 0x07
let tag_quit = 0x08
let tag_proto = 0x09
let tag_attach = 0x0a
let tag_ready = 0x41
let tag_ack = 0x42
let tag_served = 0x43
let tag_paid = 0x44
let tag_session_stats = 0x45
let tag_server_stats = 0x46
let tag_conn_stats = 0x47
let tag_bye = 0x48
let tag_err = 0x49
let tag_shard_stats = 0x4a

let check_u32 what v =
  if v < 0 || v > 0xffff_ffff then
    invalid_arg (Printf.sprintf "proto_bin: %s %d out of u32 range" what v)

let check_u16 what v =
  if v < 0 || v > 0xffff then
    invalid_arg (Printf.sprintf "proto_bin: %s %d out of u16 range" what v)

let check_u8 what v =
  if v < 0 || v > 0xff then
    invalid_arg (Printf.sprintf "proto_bin: %s %d out of u8 range" what v)

(* ---------------- encoder ---------------- *)

(* The scratch is shared with the text encoder; re-exporting its fields
   keeps the put functions below plain field accesses. *)
type enc = Wnet_outbuf.t = {
  mutable buf : Bytes.t;
  mutable off : int;  (* first byte not yet handed to the transport *)
  mutable len : int;  (* end of encoded bytes *)
}

let enc_create ?(cap = 512) () = Wnet_outbuf.create cap
let enc_pending = Wnet_outbuf.pending
let enc_buffer e = e.buf
let enc_offset e = e.off
let enc_reset = Wnet_outbuf.reset
let enc_consume = Wnet_outbuf.consume

let ensure e extra =
  if e.len + extra > Bytes.length e.buf then Wnet_outbuf.make_room e extra

let put_u8 e v =
  ensure e 1;
  Bytes.unsafe_set e.buf e.len (Char.unsafe_chr (v land 0xff));
  e.len <- e.len + 1

let put_u16 e v =
  ensure e 2;
  Bytes.set_uint16_le e.buf e.len v;
  e.len <- e.len + 2

let put_u32 e v =
  ensure e 4;
  Bytes.set_int32_le e.buf e.len (Int32.of_int v);
  e.len <- e.len + 4

let put_i64 e v =
  ensure e 8;
  Bytes.set_int64_le e.buf e.len (Int64.of_int v);
  e.len <- e.len + 8

(* Inlined, so a charge read from a float array is not boxed. *)
let[@inline] put_f64 e f =
  ensure e 8;
  Bytes.set_int64_le e.buf e.len (Int64.bits_of_float f);
  e.len <- e.len + 8

(* Frames are encoded in place and the length patched afterwards; the
   frame's start is kept relative to [off], which [ensure] may move. *)
let begin_frame e =
  let rel = e.len - e.off in
  put_u32 e 0;
  rel

let end_frame e rel =
  let pos = e.off + rel in
  let payload = e.len - pos - 4 in
  if payload > max_frame then begin
    e.len <- pos;
    invalid_arg "proto_bin: frame exceeds max_frame"
  end;
  Bytes.set_int32_le e.buf pos (Int32.of_int payload)

let put_endpoints e eps =
  List.iter
    (fun (v, w) ->
      check_u32 "endpoint node" v;
      put_u32 e v;
      put_f64 e w)
    eps

let put_request e (r : Wnet_proto.request) =
  match r with
  | Cost_node { node; cost } ->
    check_u32 "node" node;
    put_u8 e tag_cost_node;
    put_u32 e node;
    put_f64 e cost
  | Cost_link { u; v; w } ->
    check_u32 "u" u;
    check_u32 "v" v;
    put_u8 e tag_cost_link;
    put_u32 e u;
    put_u32 e v;
    put_f64 e w
  | Join { out; inn } ->
    let nout = List.length out and nin = List.length inn in
    check_u16 "join out-degree" nout;
    check_u16 "join in-degree" nin;
    put_u8 e tag_join;
    put_u16 e nout;
    put_u16 e nin;
    put_endpoints e out;
    put_endpoints e inn
  | Rejoin { node; out; inn } ->
    check_u32 "node" node;
    let nout = List.length out and nin = List.length inn in
    check_u16 "rejoin out-degree" nout;
    check_u16 "rejoin in-degree" nin;
    put_u8 e tag_rejoin;
    put_u32 e node;
    put_u16 e nout;
    put_u16 e nin;
    put_endpoints e out;
    put_endpoints e inn
  | Leave { node } ->
    check_u32 "node" node;
    put_u8 e tag_leave;
    put_u32 e node
  | Pay -> put_u8 e tag_pay
  | Stats -> put_u8 e tag_stats
  | Proto { proto } ->
    check_u8 "proto" proto;
    put_u8 e tag_proto;
    put_u8 e proto
  | Attach { session } ->
    check_u32 "session" session;
    put_u8 e tag_attach;
    put_u32 e session
  | Quit -> put_u8 e tag_quit

(* A [Served] message up to its path: [len] [put_path_node]s and the
   charge's [put_f64] follow.  [put_response] and [encode_pay] share
   these, so the list and the view write one layout. *)
let put_served_head e src len =
  check_u32 "src" src;
  put_u8 e tag_served;
  put_u32 e src;
  check_u32 "path length" len;
  put_u32 e len

let put_path_node e v =
  check_u32 "path node" v;
  put_u32 e v

let put_paid e served unbounded total =
  check_u32 "served" served;
  check_u32 "unbounded" unbounded;
  put_u8 e tag_paid;
  put_u32 e served;
  put_u32 e unbounded;
  put_f64 e total

let put_response e (r : Wnet_proto.response) =
  match r with
  | Ready { proto; model; n; root; domains } ->
    check_u32 "n" n;
    check_u32 "root" root;
    check_u32 "domains" domains;
    check_u8 "proto" proto;
    put_u8 e tag_ready;
    put_u8 e proto;
    put_u8 e (match model with `Node -> 0 | `Link -> 1);
    put_u32 e n;
    put_u32 e root;
    put_u32 e domains
  | Ack { version; node } ->
    check_u32 "version" version;
    put_u8 e tag_ack;
    put_u32 e version;
    (match node with
    | None -> put_u32 e 0
    | Some id ->
      check_u32 "node" (id + 1);
      put_u32 e (id + 1))
  | Served { src; path; charge } ->
    put_served_head e src (List.length path);
    List.iter (fun v -> put_path_node e v) path;
    put_f64 e charge
  | Paid { served; unbounded; total } -> put_paid e served unbounded total
  | Session_stats st ->
    put_u8 e tag_session_stats;
    put_i64 e st.edits;
    put_i64 e st.coalesced_edits;
    put_i64 e st.inval_passes;
    put_i64 e st.spt_runs;
    put_i64 e st.avoid_runs;
    put_i64 e st.avoid_reused;
    put_i64 e st.repaired_entries;
    put_i64 e st.fallback_recomputes;
    put_i64 e st.tasks_executed;
    put_i64 e st.tasks_stolen;
    put_i64 e st.avoid_bounded;
    put_i64 e st.avoid_fallback
  | Server_stats
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
    put_u8 e tag_server_stats;
    put_i64 e clients;
    put_i64 e requests;
    put_i64 e edits;
    put_i64 e coalesced;
    put_i64 e cache_hits;
    put_i64 e cache_misses;
    put_i64 e bytes_in;
    put_i64 e bytes_out
  | Shard_stats
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
    check_u16 "shard" shard;
    put_u8 e tag_shard_stats;
    put_u16 e shard;
    put_i64 e conns;
    put_i64 e requests;
    put_i64 e edits;
    put_i64 e coalesced;
    put_i64 e inval_passes;
    put_i64 e cache_hits;
    put_i64 e cache_misses;
    put_i64 e repaired;
    put_i64 e tasks;
    put_i64 e stolen;
    put_i64 e bytes_in;
    put_i64 e bytes_out
  | Conn_stats { requests; bytes_in; bytes_out; proto } ->
    check_u8 "proto" proto;
    put_u8 e tag_conn_stats;
    put_u8 e proto;
    put_i64 e requests;
    put_i64 e bytes_in;
    put_i64 e bytes_out
  | Bye -> put_u8 e tag_bye
  | Err m ->
    let m =
      if String.length m > 0xffff then String.sub m 0 0xffff else m
    in
    put_u8 e tag_err;
    put_u16 e (String.length m);
    ensure e (String.length m);
    Bytes.blit_string m 0 e.buf e.len (String.length m);
    e.len <- e.len + String.length m

let encode_request e r =
  let pos = begin_frame e in
  put_u16 e 1;
  put_request e r;
  end_frame e pos

let encode_response e r =
  let pos = begin_frame e in
  put_u16 e 1;
  put_response e r;
  end_frame e pos

let check_batch what k =
  if k > max_batch then
    invalid_arg (Printf.sprintf "proto_bin: %s batch of %d > %d" what k
        max_batch)

let batch_count what = function
  | [] -> invalid_arg (Printf.sprintf "proto_bin: empty %s batch" what)
  | l ->
    let k = List.length l in
    check_batch what k;
    k

(* Plain recursion instead of [List.iter (put_request e)]: the partial
   application would allocate a closure per batch frame, and the batch
   path promises zero steady-state allocation. *)
let rec put_requests e = function
  | [] -> ()
  | r :: rs ->
    put_request e r;
    put_requests e rs

let rec put_responses e = function
  | [] -> ()
  | r :: rs ->
    put_response e r;
    put_responses e rs

let encode_requests e rs =
  let k = batch_count "request" rs in
  let pos = begin_frame e in
  put_u16 e k;
  put_requests e rs;
  end_frame e pos

let encode_responses e rs =
  let k = batch_count "response" rs in
  let pos = begin_frame e in
  put_u16 e k;
  put_responses e rs;
  end_frame e pos

(* A pay reply straight from a session's pay view: the frame
   [encode_responses] writes for the [Served]/[Paid] list
   [Wnet_proto.handle] derives from the same view, through the same
   message writers, and no list. *)
let encode_pay e (p : Wnet_session.pay) =
  let k = p.count + 1 in
  check_batch "response" k;
  let pos = begin_frame e in
  put_u16 e k;
  for i = 0 to p.count - 1 do
    let lo = p.off.(i) and hi = p.off.(i + 1) in
    put_served_head e p.src.(i) (hi - lo);
    for j = lo to hi - 1 do
      put_path_node e p.hops.(j)
    done;
    put_f64 e p.charge.(i)
  done;
  put_paid e p.count p.unbounded p.total;
  end_frame e pos

(* ---------------- decoder ---------------- *)

type dec = {
  mutable dbuf : Bytes.t;
  mutable dpos : int;  (* read cursor *)
  mutable dlen : int;  (* end of valid bytes *)
  mutable dmsgs : int;  (* messages left in the current frame *)
  mutable dend : int;  (* end of the current frame payload *)
  mutable dbad : string;  (* sticky framing error, "" = healthy *)
}

let dec_create ?(cap = 512) () =
  {
    dbuf = Bytes.create (max cap 64);
    dpos = 0;
    dlen = 0;
    dmsgs = 0;
    dend = 0;
    dbad = "";
  }

let dec_pending d = d.dlen - d.dpos

let dec_feed d src off len =
  if off < 0 || len < 0 || off + len > Bytes.length src then
    invalid_arg "proto_bin: dec_feed out of range";
  (* compact: drop consumed bytes so the buffer stays bounded *)
  if d.dpos > 0 then begin
    Bytes.blit d.dbuf d.dpos d.dbuf 0 (d.dlen - d.dpos);
    d.dlen <- d.dlen - d.dpos;
    d.dend <- d.dend - d.dpos;
    d.dpos <- 0
  end;
  let need = d.dlen + len in
  if need > Bytes.length d.dbuf then begin
    let cap = ref (Bytes.length d.dbuf) in
    while !cap < need do
      cap := !cap * 2
    done;
    let nb = Bytes.create !cap in
    Bytes.blit d.dbuf 0 nb 0 d.dlen;
    d.dbuf <- nb
  end;
  Bytes.blit src off d.dbuf d.dlen len;
  d.dlen <- d.dlen + len

let dec_feed_string d s off len = dec_feed d (Bytes.unsafe_of_string s) off len

type view = {
  mutable tag : int;
  mutable i0 : int;
  mutable i1 : int;
  fl : float array;  (* length 1: the message's float slot *)
  counters : int array;  (* length 12: stats counter slots *)
  mutable path : int list;
  mutable out_eps : (int * float) list;
  mutable inn_eps : (int * float) list;
  mutable text : string;
}

let make_view () =
  {
    tag = 0;
    i0 = 0;
    i1 = 0;
    fl = Array.make 1 0.0;
    counters = Array.make 12 0;
    path = [];
    out_eps = [];
    inn_eps = [];
    text = "";
  }

exception Corrupt of string

let fail_frame m = raise (Corrupt m)

let need d n = if d.dpos + n > d.dend then fail_frame "truncated message"

let get_u8 d =
  need d 1;
  let v = Char.code (Bytes.unsafe_get d.dbuf d.dpos) in
  d.dpos <- d.dpos + 1;
  v

let get_u16 d =
  need d 2;
  let v = Bytes.get_uint16_le d.dbuf d.dpos in
  d.dpos <- d.dpos + 2;
  v

let get_u32 d =
  need d 4;
  let v = Int32.to_int (Bytes.get_int32_le d.dbuf d.dpos) land 0xffff_ffff in
  d.dpos <- d.dpos + 4;
  v

let get_i64 d =
  need d 8;
  let v = Int64.to_int (Bytes.get_int64_le d.dbuf d.dpos) in
  d.dpos <- d.dpos + 8;
  v

let get_f64 d =
  need d 8;
  let v = Int64.float_of_bits (Bytes.get_int64_le d.dbuf d.dpos) in
  d.dpos <- d.dpos + 8;
  v

(* Read a float straight into the view's unboxed slot.  Without
   flambda, a [get_f64] call boxes its float return value (2 minor
   words per message); storing through the float-array slot inside one
   expression keeps the whole read unboxed, which the microbench
   asserts ([bench/micro/bench_proto_decode]). *)
let get_f64_into d (fl : float array) =
  need d 8;
  fl.(0) <- Int64.float_of_bits (Bytes.get_int64_le d.dbuf d.dpos);
  d.dpos <- d.dpos + 8

let get_endpoints d k =
  let rec go k acc =
    if k = 0 then List.rev acc
    else begin
      let v = get_u32 d in
      let w = get_f64 d in
      go (k - 1) ((v, w) :: acc)
    end
  in
  go k []

let decode_msg d (v : view) =
  let tag = get_u8 d in
  v.tag <- tag;
  if tag = tag_cost_link then begin
    (* hottest message first: one bounds check, three reads, no alloc *)
    need d 16;
    v.i0 <- get_u32 d;
    v.i1 <- get_u32 d;
    get_f64_into d v.fl
  end
  else if tag = tag_cost_node then begin
    need d 12;
    v.i0 <- get_u32 d;
    get_f64_into d v.fl
  end
  else if tag = tag_ack then begin
    need d 8;
    v.i0 <- get_u32 d;
    v.i1 <- get_u32 d
  end
  else if tag = tag_paid then begin
    need d 16;
    v.i0 <- get_u32 d;
    v.i1 <- get_u32 d;
    get_f64_into d v.fl
  end
  else if tag = tag_leave then v.i0 <- get_u32 d
  else if tag = tag_pay || tag = tag_stats || tag = tag_quit || tag = tag_bye
  then ()
  else if tag = tag_served then begin
    v.i0 <- get_u32 d;
    let len = get_u32 d in
    need d ((4 * len) + 8);
    let rec go k acc = if k = 0 then acc else go (k - 1) (get_u32 d :: acc) in
    v.path <- List.rev (go len []);
    v.fl.(0) <- get_f64 d
  end
  else if tag = tag_join then begin
    let nout = get_u16 d in
    let nin = get_u16 d in
    v.out_eps <- get_endpoints d nout;
    v.inn_eps <- get_endpoints d nin
  end
  else if tag = tag_rejoin then begin
    v.i0 <- get_u32 d;
    let nout = get_u16 d in
    let nin = get_u16 d in
    v.out_eps <- get_endpoints d nout;
    v.inn_eps <- get_endpoints d nin
  end
  else if tag = tag_proto then v.i0 <- get_u8 d
  else if tag = tag_attach then begin
    need d 4;
    v.i0 <- get_u32 d
  end
  else if tag = tag_ready then begin
    need d 14;
    v.i0 <- get_u8 d;
    v.i1 <- get_u8 d;
    v.counters.(0) <- get_u32 d;
    v.counters.(1) <- get_u32 d;
    v.counters.(2) <- get_u32 d
  end
  else if tag = tag_session_stats then begin
    need d 96;
    for i = 0 to 11 do
      v.counters.(i) <- get_i64 d
    done
  end
  else if tag = tag_server_stats then begin
    need d 64;
    for i = 0 to 7 do
      v.counters.(i) <- get_i64 d
    done
  end
  else if tag = tag_shard_stats then begin
    need d 98;
    v.i0 <- get_u16 d;
    for i = 0 to 11 do
      v.counters.(i) <- get_i64 d
    done
  end
  else if tag = tag_conn_stats then begin
    need d 25;
    v.i0 <- get_u8 d;
    for i = 0 to 2 do
      v.counters.(i) <- get_i64 d
    done
  end
  else if tag = tag_err then begin
    let len = get_u16 d in
    need d len;
    v.text <- Bytes.sub_string d.dbuf d.dpos len;
    d.dpos <- d.dpos + len
  end
  else fail_frame "unknown message tag"

let decode_next d (v : view) =
  if d.dbad <> "" then `Corrupt d.dbad
  else begin
    try
      if d.dmsgs = 0 then begin
        (* at a frame boundary: wait for the whole frame *)
        if d.dlen - d.dpos < 4 then raise Exit;
        let payload =
          Int32.to_int (Bytes.get_int32_le d.dbuf d.dpos) land 0xffff_ffff
        in
        if payload < 3 || payload > max_frame then
          fail_frame "bad frame length";
        if d.dlen - d.dpos < 4 + payload then raise Exit;
        d.dend <- d.dpos + 4 + payload;
        d.dpos <- d.dpos + 4;
        let count = Bytes.get_uint16_le d.dbuf d.dpos in
        d.dpos <- d.dpos + 2;
        if count = 0 then fail_frame "empty frame"
        else d.dmsgs <- count
      end;
      decode_msg d v;
      d.dmsgs <- d.dmsgs - 1;
      if d.dmsgs = 0 && d.dpos <> d.dend then
        fail_frame "trailing bytes in frame"
      else `Msg
    with
    | Exit -> `Need_more
    | Corrupt m ->
      d.dbad <- m;
      `Corrupt m
  end

let request_of_view (v : view) : (Wnet_proto.request, string) result =
  let t = v.tag in
  if t = tag_cost_node then Ok (Cost_node { node = v.i0; cost = v.fl.(0) })
  else if t = tag_cost_link then
    Ok (Cost_link { u = v.i0; v = v.i1; w = v.fl.(0) })
  else if t = tag_join then Ok (Join { out = v.out_eps; inn = v.inn_eps })
  else if t = tag_rejoin then
    Ok (Rejoin { node = v.i0; out = v.out_eps; inn = v.inn_eps })
  else if t = tag_leave then Ok (Leave { node = v.i0 })
  else if t = tag_pay then Ok Pay
  else if t = tag_stats then Ok Stats
  else if t = tag_proto then Ok (Proto { proto = v.i0 })
  else if t = tag_attach then Ok (Attach { session = v.i0 })
  else if t = tag_quit then Ok Quit
  else Error (Printf.sprintf "not a request tag 0x%02x" t)

let response_of_view (v : view) : (Wnet_proto.response, string) result =
  let t = v.tag in
  if t = tag_ready then
    if v.i1 <> 0 && v.i1 <> 1 then Error "ready: bad model byte"
    else
      Ok
        (Ready
           {
             proto = v.i0;
             model = (if v.i1 = 0 then `Node else `Link);
             n = v.counters.(0);
             root = v.counters.(1);
             domains = v.counters.(2);
           })
  else if t = tag_ack then
    Ok
      (Ack
         {
           version = v.i0;
           node = (if v.i1 = 0 then None else Some (v.i1 - 1));
         })
  else if t = tag_served then
    Ok (Served { src = v.i0; path = v.path; charge = v.fl.(0) })
  else if t = tag_paid then
    Ok (Paid { served = v.i0; unbounded = v.i1; total = v.fl.(0) })
  else if t = tag_session_stats then
    let c = v.counters in
    Ok
      (Session_stats
         {
           edits = c.(0);
           coalesced_edits = c.(1);
           inval_passes = c.(2);
           spt_runs = c.(3);
           avoid_runs = c.(4);
           avoid_reused = c.(5);
           repaired_entries = c.(6);
           fallback_recomputes = c.(7);
           tasks_executed = c.(8);
           tasks_stolen = c.(9);
           avoid_bounded = c.(10);
           avoid_fallback = c.(11);
         })
  else if t = tag_server_stats then
    let c = v.counters in
    Ok
      (Server_stats
         {
           clients = c.(0);
           requests = c.(1);
           edits = c.(2);
           coalesced = c.(3);
           cache_hits = c.(4);
           cache_misses = c.(5);
           bytes_in = c.(6);
           bytes_out = c.(7);
         })
  else if t = tag_shard_stats then
    let c = v.counters in
    Ok
      (Shard_stats
         {
           shard = v.i0;
           conns = c.(0);
           requests = c.(1);
           edits = c.(2);
           coalesced = c.(3);
           inval_passes = c.(4);
           cache_hits = c.(5);
           cache_misses = c.(6);
           repaired = c.(7);
           tasks = c.(8);
           stolen = c.(9);
           bytes_in = c.(10);
           bytes_out = c.(11);
         })
  else if t = tag_conn_stats then
    Ok
      (Conn_stats
         {
           proto = v.i0;
           requests = v.counters.(0);
           bytes_in = v.counters.(1);
           bytes_out = v.counters.(2);
         })
  else if t = tag_bye then Ok Bye
  else if t = tag_err then Ok (Err v.text)
  else Error (Printf.sprintf "not a response tag 0x%02x" t)

let decode_request d v =
  match decode_next d v with
  | `Msg -> (
    match request_of_view v with
    | Ok r -> `Req r
    | Error m ->
      d.dbad <- m;
      `Corrupt m)
  | (`Need_more | `Corrupt _) as x -> x

let decode_response d v =
  match decode_next d v with
  | `Msg -> (
    match response_of_view v with
    | Ok r -> `Resp r
    | Error m ->
      d.dbad <- m;
      `Corrupt m)
  | (`Need_more | `Corrupt _) as x -> x
