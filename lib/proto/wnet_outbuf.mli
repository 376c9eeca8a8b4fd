(** The growable output scratch both wire encoders render into
    ({!Wnet_proto.enc}, {!Wnet_proto_bin.enc}).  Bytes are appended at
    [len] and handed to the transport from [off]; valid bytes are
    [[off, len)].

    Room is made by {!make_room}: consumed bytes at the front are
    reclaimed when they are at least as many as the pending ones (so a
    move costs no more than the room it frees), otherwise the scratch
    doubles.  A reader that drains slowly therefore cannot make it
    creep: its size stays within a small factor of the most bytes ever
    pending.  Either way positions shift only by [off], so an encoder
    that must come back to a position (a frame's length prefix, a line
    to remember) keeps it relative to [off].

    Once every byte is consumed, a scratch over 4 KiB is replaced by a
    4 KiB one: what a drained scratch keeps is bounded, whatever its
    peak was, at the price of growing again for the next large
    reply. *)

type t = { mutable buf : Bytes.t; mutable off : int; mutable len : int }

val create : int -> t
(** An empty scratch of at least 64 bytes. *)

val pending : t -> int

val make_room : t -> int -> unit
(** [make_room o k], when [o.len + k] exceeds the scratch: room for [k]
    more bytes at [len].  The encoders test for room themselves, so
    the common case stays an inlined comparison. *)

val consume : t -> int -> unit
(** Mark [n] leading pending bytes as handed to the transport; when
    none are left, a scratch over 4 KiB shrinks to 4 KiB.
    @raise Invalid_argument if [n] exceeds {!pending}. *)

val reset : t -> unit
(** Drop all pending bytes (keeps the scratch). *)
