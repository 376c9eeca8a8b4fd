(** Binary wire codec for the {!Wnet_proto} grammar — protocol 2.

    Same requests, same responses, different framing: instead of one
    text line per message, proto=2 ships length-prefixed binary frames

    {v
    frame   := payload_len:u32le payload        payload_len <= max_frame
    payload := count:u16le message{count}       count >= 1
    message := tag:u8 fields...                 fixed-width little-endian
    v}

    Integers are fixed-width little-endian (ids [u32], stats counters
    [i64]); floats are shipped as their IEEE-754 bit pattern
    ([Int64.bits_of_float]), so a decode of an encode is {e bitwise}
    identical — NaN payloads, negative zero and infinities included —
    with none of the [%.17g] printing the text codec leans on.

    A frame with [count > 1] is a batch: the transport delivers a
    k-edit burst in one write and one read, and the server applies it
    in one buffered pass, so the session coalesces it into one
    invalidation exactly like a k-line text burst.

    Negotiation rides the text protocol: a client opens in proto=1,
    sends [proto 2], and the server answers with a text
    [ready proto=2 ...] banner after which {e both} directions of that
    connection speak frames.  Text clients never see a frame.

    {2 Allocation discipline}

    The codec is allocation-free on the steady-state path.  Encoding
    appends into a caller-owned growable scratch ({!enc}); once the
    scratch has room for what is pending (a drained scratch keeps
    4 KiB), encoding any fixed-size message allocates nothing.  Decoding fills a
    caller-owned mutable {!view} whose single float slot lives in an
    unboxed float array, and returns constant variants — no allocation
    for fixed-size messages.  Variable-size payloads (join/rejoin
    endpoint lists, served paths, err text) materialise lists/strings
    and are the documented cold path.  [bench/micro/bench_proto_*]
    asserts the zero-allocation claim with [Gc.minor_words] deltas.

    Framing errors (bad length, unknown tag, trailing bytes) are
    {e sticky}: a binary stream cannot resynchronise after a corrupt
    frame, so every later {!decode_next} reports the same error and the
    transport should close the connection. *)

val version : int
(** 2 — the value negotiated by the [proto 2] request. *)

val max_frame : int
(** Upper bound on a frame's payload size in bytes; frames claiming
    more are rejected (bounds decoder buffering against hostile
    peers). *)

val max_batch : int
(** Upper bound on messages per frame (65535). *)

(** {2 Encoding} *)

type enc
(** A growable output scratch.  Encoded frames accumulate; the
    transport drains them with {!enc_buffer}/{!enc_offset}/
    {!enc_pending} + {!enc_consume} (partial writes supported). *)

val enc_create : ?cap:int -> unit -> enc
val enc_pending : enc -> int
(** Bytes encoded and not yet consumed. *)

val enc_buffer : enc -> Bytes.t
(** The scratch itself; valid bytes are
    [[enc_offset e, enc_offset e + enc_pending e)].  Invalidated by the
    next [encode_*] call (the buffer may grow and move). *)

val enc_offset : enc -> int
val enc_consume : enc -> int -> unit
(** Mark [n] leading pending bytes as written to the transport.
    @raise Invalid_argument if [n] exceeds {!enc_pending}. *)

val enc_reset : enc -> unit
(** Drop all pending bytes (keeps the scratch). *)

val encode_request : enc -> Wnet_proto.request -> unit
(** Append a single-message frame.
    @raise Invalid_argument on a value outside the wire's fixed-width
    ranges (ids must fit u32, endpoint counts u16). *)

val encode_requests : enc -> Wnet_proto.request list -> unit
(** Append ONE batch frame holding every request, in order.
    @raise Invalid_argument on an empty list, more than {!max_batch}
    messages, or a frame exceeding {!max_frame}. *)

val encode_response : enc -> Wnet_proto.response -> unit
val encode_responses : enc -> Wnet_proto.response list -> unit

val encode_pay : enc -> Wnet_session.pay -> unit
(** A whole pay reply straight from a session's pay view: the bytes of
    [encode_responses] over the [Served]/[Paid] list
    {!Wnet_proto.handle} derives from the same view (one batch frame),
    without building the list.  Raises as [encode_responses] would. *)

(** {2 Decoding} *)

type dec
(** An input reassembly buffer: feed transport chunks in, pull decoded
    messages out.  Frames are yielded only once complete, one message
    per {!decode_next} call. *)

val dec_create : ?cap:int -> unit -> dec
val dec_pending : dec -> int
(** Buffered bytes not yet decoded. *)

val dec_feed : dec -> Bytes.t -> int -> int -> unit
(** [dec_feed d src off len] appends [src[off..off+len)]. *)

val dec_feed_string : dec -> string -> int -> int -> unit

type view = {
  mutable tag : int;
  mutable i0 : int;
  mutable i1 : int;
  fl : float array;  (** length 1: the message's float slot *)
  counters : int array;  (** length 12: stats counter slots *)
  mutable path : int list;
  mutable out_eps : (int * float) list;
  mutable inn_eps : (int * float) list;
  mutable text : string;
}
(** A decoded message, unpacked into reusable slots (see
    {!request_of_view}/{!response_of_view} for the slot assignment per
    tag).  Reused across {!decode_next} calls; slots not written by the
    current message keep stale values. *)

val make_view : unit -> view

val decode_next : dec -> view -> [ `Msg | `Need_more | `Corrupt of string ]
(** Decode the next message of the stream into [v].  [`Need_more]
    until the message's whole frame has been fed.  [`Corrupt] is
    sticky. *)

val request_of_view : view -> (Wnet_proto.request, string) result
(** Materialise the request in [v] (allocates).  [Error] if the tag is
    a response tag. *)

val response_of_view : view -> (Wnet_proto.response, string) result

val decode_request :
  dec -> view -> [ `Req of Wnet_proto.request | `Need_more | `Corrupt of string ]
(** {!decode_next} + {!request_of_view}; a response tag is [`Corrupt]. *)

val decode_response :
  dec ->
  view ->
  [ `Resp of Wnet_proto.response | `Need_more | `Corrupt of string ]
