type t = { mutable buf : Bytes.t; mutable off : int; mutable len : int }

let create cap = { buf = Bytes.create (max cap 64); off = 0; len = 0 }
let pending o = o.len - o.off

(* Once drained, a scratch over this size is swapped for one of this
   size, so neither a pause nor a large reply pins its high-water mark
   for the connection's life: an idle connection keeps 4 KiB. *)
let keep = 1 lsl 12

let reset o =
  o.off <- 0;
  o.len <- 0

let consume o n =
  if n < 0 || n > pending o then invalid_arg "Wnet_outbuf.consume: out of range";
  o.off <- o.off + n;
  if o.off = o.len then begin
    reset o;
    if Bytes.length o.buf > keep then o.buf <- Bytes.create keep
  end

let make_room o extra =
  let pending = o.len - o.off in
  if o.off >= pending then begin
    Bytes.blit o.buf o.off o.buf 0 pending;
    o.off <- 0;
    o.len <- pending
  end;
  let need = o.len + extra in
  if need > Bytes.length o.buf then begin
    let cap = ref (Bytes.length o.buf) in
    while !cap < need do
      cap := !cap * 2
    done;
    let nb = Bytes.create !cap in
    Bytes.blit o.buf o.off nb 0 pending;
    o.buf <- nb;
    o.off <- 0;
    o.len <- pending
  end
