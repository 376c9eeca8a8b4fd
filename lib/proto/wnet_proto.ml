let version = 1

type request =
  | Cost_node of { node : int; cost : float }
  | Cost_link of { u : int; v : int; w : float }
  | Join of { out : (int * float) list; inn : (int * float) list }
  | Rejoin of { node : int; out : (int * float) list; inn : (int * float) list }
  | Leave of { node : int }
  | Pay
  | Stats
  | Proto of { proto : int }
  | Attach of { session : int }
  | Quit

type response =
  | Ready of {
      proto : int;
      model : Wnet_session.model;
      n : int;
      root : int;
      domains : int;
    }
  | Ack of { version : int; node : int option }
  | Served of { src : int; path : int list; charge : float }
  | Paid of { served : int; unbounded : int; total : float }
  | Session_stats of Wnet_session.stats
  | Server_stats of {
      clients : int;
      requests : int;
      edits : int;
      coalesced : int;
      cache_hits : int;
      cache_misses : int;
      bytes_in : int;
      bytes_out : int;
    }
  | Shard_stats of {
      shard : int;
      conns : int;
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
  | Conn_stats of {
      requests : int;
      bytes_in : int;
      bytes_out : int;
      proto : int;
    }
  | Bye
  | Err of string

(* The C primitive that Printf's %.12g and %.17g conversions end in
   (CamlinternalFormat.convert_float), called directly: the same bytes
   without interpreting a format at run time. *)
external format_float : string -> float -> string = "caml_format_float"

(* Shortest decimal form that parses back bit-identically: %.12g covers
   every weight arising from the short decimal inputs the tools emit,
   %.17g is exact for any double.  "inf"/"nan" round-trip through
   float_of_string as-is.  This is the definition; [put_float] below
   renders the same bytes without libc wherever it can prove them. *)
let float_to_string f =
  let s = format_float "%.12g" f in
  if Float.equal (float_of_string s) f then s else format_float "%.17g" f

(* ---------------- the byte writer ---------------- *)

(* Replies are rendered straight into the growable [Bytes] scratch the
   binary encoder also uses ([Wnet_outbuf]), which the transport drains
   through buffer/offset/pending/consume: integers digit by digit, fixed
   text blitted in, floats by [put_float]. *)

type enc = Wnet_outbuf.t = {
  mutable buf : Bytes.t;
  mutable off : int;  (* first byte not yet handed to the transport *)
  mutable len : int;  (* end of rendered bytes *)
}

let ensure e extra =
  if e.len + extra > Bytes.length e.buf then Wnet_outbuf.make_room e extra

let put_char e c =
  ensure e 1;
  Bytes.unsafe_set e.buf e.len c;
  e.len <- e.len + 1

let put_string e s =
  let n = String.length s in
  ensure e n;
  Bytes.unsafe_blit_string s 0 e.buf e.len n;
  e.len <- e.len + n

(* Decimal digits written in place, the bytes of [string_of_int].  The
   digits come off the non-positive value, so [min_int] needs no
   negation; loops rather than local functions, which would close
   over [e]. *)
let put_int e i =
  if i < 0 then put_char e '-';
  let v = if i < 0 then i else -i in
  let nd = ref 1 and d = ref v in
  while !d <= -10 do
    d := !d / 10;
    incr nd
  done;
  ensure e !nd;
  let pos = ref (e.len + !nd - 1) and r = ref v in
  while !pos >= e.len do
    Bytes.unsafe_set e.buf !pos (Char.unsafe_chr (48 - (!r mod 10)));
    r := !r / 10;
    decr pos
  done;
  e.len <- e.len + !nd

(* ---------------- the float writer ----------------

   [put_float e x] appends [float_to_string x]'s bytes.  A finite
   x with 1 <= |x| < 1e16 (on the served link workload, every charge
   and total but 0) is rendered exactly in integer arithmetic, its
   digits written straight into the scratch; ±0 are written directly;
   everything else, and the band below, goes to [float_to_string].

   Digits.  Write |x| = m * 2^e2 (m < 2^53) and let E = floor(log10 |x|)
   in [0, 15], found exactly by comparing against the exact doubles
   10^0 .. 10^16.  With q = 16 - E, the 17 significant digits %.17g
   prints are N = round(|x| * 10^q) = round(m * 5^q * 2^(q + e2)), the
   rounding to nearest, ties to even, as glibc rounds an exact value.
   5^q < 2^38, so m * 5^q < 2^91 is formed exactly in two limbs of at
   most 53 bits and shifted right, or is exact when q + e2 >= 0.  If N
   rounds up to 10^17, E moves up by one.  For E <= 16, %g's layout is
   fixed notation: E + 1 integer digits, then the fraction with its
   trailing zeros (and a bare point) stripped; the window never reaches
   %g's exponent form.

   Which branch of the definition applies.  %.12g is kept only when it
   parses back to x, i.e. when x lies within half an ulp of a 12-digit
   decimal D * 10^(E - 11).  With 2^k <= |x| < 10^(E + 1), half an ulp
   is 2^(k - 53) < 10^(E + 1) / 2^53, which in units of N's last digit,
   10^(E - 16), is under 10^17 / 2^53 < 11.11.  N is within 1/2 of
   |x| * 10^q, so |N - D * 10^5| <= 11: N mod 10^5 is at most 11 or at
   least 99 989.  Outside the band N mod 10^5 in [13, 99 987] (one
   unit of slack each side) %.12g cannot round-trip, the definition
   prints %.17g, and that is N laid out; inside it [float_to_string]
   decides.  On the served link workload the band takes under 0.1 % of
   the calls (EXPERIMENTS.md). *)

let mant_mask = (1 lsl 52) - 1

(* The fields of a float's bit pattern as two ints: [top] holds the
   sign and the 11 exponent bits, [mant] the 52 fraction bits.  Inlined,
   so a float read from a float array is never boxed to be printed. *)
let[@inline] bits_top b = Int64.to_int (Int64.shift_right_logical b 52)
let[@inline] bits_mant b = Int64.to_int b land mant_mask

let float_of_fields top mant =
  Int64.float_of_bits
    (Int64.logor (Int64.shift_left (Int64.of_int top) 52) (Int64.of_int mant))

(* 1 <= |x| < 2^54 as one int that orders like |x|: the unbiased
   exponent above the fraction bits. *)
let[@inline] window_key be mant = ((be - 1023) lsl 52) lor mant

let pow10_key =
  Array.map
    (fun x ->
      let b = Int64.bits_of_float x in
      window_key (bits_top b) (bits_mant b))
    [| 1e0; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12;
       1e13; 1e14; 1e15; 1e16 |]

let pow5 =
  [| 1; 5; 25; 125; 625; 3125; 15625; 78125; 390625; 1953125; 9765625;
     48828125; 244140625; 1220703125; 6103515625; 30517578125;
     152587890625 |]

(* N and E for 1 <= |x| < 1e16; [float_to_string] when N is in the
   band. *)
let put_exact e top mant =
  let be = top land 0x7ff in
  let key = window_key be mant in
  let ex = ref (((be - 1023) * 77) lsr 8) (* <= floor(log10 2^k) *) in
  while pow10_key.(!ex + 1) <= key do
    incr ex
  done;
  let q = 16 - !ex and m = mant lor (1 lsl 52) and e2 = be - 1075 in
  let p = pow5.(q) in
  let n =
    if q + e2 >= 0 then (m * p) lsl (q + e2)
    else begin
      (* m * p = hi * 2^52 + lo; every partial product below 2^54 *)
      let s = -(q + e2) (* 1 .. 36 *) in
      let ml = m land 0x3ffffff and mh = m lsr 26 in
      let pl = p land 0x3ffffff and ph = p lsr 26 in
      let mid = (mh * pl) + (ml * ph) in
      let lo = (ml * pl) + ((mid land 0x3ffffff) lsl 26) in
      let hi = (mh * ph) + (mid lsr 26) + (lo lsr 52) in
      let lo = lo land mant_mask in
      let n = (hi lsl (52 - s)) lor (lo lsr s) in
      let r = lo land ((1 lsl s) - 1) and half = 1 lsl (s - 1) in
      if r > half || (r = half && n land 1 = 1) then n + 1 else n
    end
  in
  let n =
    if n < 100_000_000_000_000_000 then n
    else begin
      incr ex;
      n / 10
    end
  in
  let ex = !ex and tail = n mod 100_000 in
  if tail <= 12 || tail >= 99_988 then
    put_string e (float_to_string (float_of_fields top mant))
  else begin
    let nd = ref 17 and n = ref n in
    while !nd > ex + 1 && !n mod 10 = 0 do
      n := !n / 10;
      decr nd
    done;
    let nd = !nd and neg = top > 0x7ff in
    let len = Bool.to_int neg + nd + Bool.to_int (nd > ex + 1) in
    ensure e len;
    let start = e.len in
    let pos = ref (start + len - 1) in
    for i = nd - 1 downto 0 do
      Bytes.unsafe_set e.buf !pos (Char.unsafe_chr (48 + (!n mod 10)));
      n := !n / 10;
      decr pos;
      if i = ex + 1 then begin
        Bytes.unsafe_set e.buf !pos '.';
        decr pos
      end
    done;
    if neg then Bytes.unsafe_set e.buf start '-';
    e.len <- start + len
  end

let put_float_fields e top mant =
  let be = top land 0x7ff in
  if be >= 1023 && be <= 1076 && window_key be mant < pow10_key.(16) then
    put_exact e top mant
  else if be = 0 && mant = 0 then put_string e (if top = 0 then "0" else "-0")
  else put_string e (float_to_string (float_of_fields top mant))

let[@inline] put_float e x =
  let b = Int64.bits_of_float x in
  put_float_fields e (bits_top b) (bits_mant b)

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

(* The served hot lines, [cost U V W], [cost K C] and [pay], read in
   place: no mapped copy, no token list.  An int is 1 to 18 plain
   decimal digits, which [int_of_string_opt] reads to the same value; a
   weight is its token through [float_of_string_opt].  Anything else,
   an error included, is [None] and goes to the tokenizer, so every
   other answer and every error text is the tokenizer's.  Bounds are
   [String.trim]'s, separators [tokens]'. *)

let[@inline] is_blank c = c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\012'
let[@inline] is_sep c = c = ' ' || c = '\t'

let rec skip_seps line hi i =
  if i < hi && is_sep (String.unsafe_get line i) then skip_seps line hi (i + 1) else i

let rec token_end line hi i =
  if i < hi && not (is_sep (String.unsafe_get line i)) then token_end line hi (i + 1) else i

(* The digits of [line.[i .. j - 1]] as an int, or -1. *)
let plain_int line i j =
  if j <= i || j - i > 18 then -1
  else begin
    let v = ref 0 and k = ref i in
    while !k < j && !v >= 0 do
      let c = String.unsafe_get line !k in
      if c >= '0' && c <= '9' then v := (!v * 10) + (Char.code c - 48) else v := -1;
      incr k
    done;
    !v
  end

let is_word line i j w =
  j - i = String.length w
  &&
  let rec go k =
    k >= j - i || (String.unsafe_get line (i + k) = String.unsafe_get w k && go (k + 1))
  in
  go 0

let fast_request line =
  let lo = ref 0 and hi = ref (String.length line) in
  while !lo < !hi && is_blank (String.unsafe_get line !lo) do incr lo done;
  while !hi > !lo && is_blank (String.unsafe_get line (!hi - 1)) do decr hi done;
  let lo = !lo and hi = !hi in
  let e1 = token_end line hi lo in
  if e1 = hi then (if is_word line lo e1 "pay" then Some Pay else None)
  else if not (is_word line lo e1 "cost") then None
  else begin
    let a0 = skip_seps line hi e1 in
    let a1 = token_end line hi a0 in
    let b0 = skip_seps line hi a1 in
    let b1 = token_end line hi b0 in
    let a = plain_int line a0 a1 in
    if a < 0 || b0 = hi then None
    else if b1 = hi then
      match float_of_string_opt (String.sub line b0 (b1 - b0)) with
      | Some cost -> Some (Cost_node { node = a; cost })
      | None -> None
    else begin
      let c0 = skip_seps line hi b1 in
      let c1 = token_end line hi c0 in
      let b = plain_int line b0 b1 in
      if b < 0 || c1 <> hi then None
      else
        match float_of_string_opt (String.sub line c0 (c1 - c0)) with
        | Some w -> Some (Cost_link { u = a; v = b; w })
        | None -> None
    end
  end

let parse_tokens line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then Ok None
  else
    let req =
      match tokens line with
      | [ "cost"; a; b ] ->
        let* node = int_tok "cost" a in
        let* cost = float_tok "cost" b in
        Ok (Cost_node { node; cost })
      | [ "cost"; a; b; c ] ->
        let* u = int_tok "cost" a in
        let* v = int_tok "cost" b in
        let* w = float_tok "cost" c in
        Ok (Cost_link { u; v; w })
      | "cost" :: _ -> Error "cost: want `cost NODE COST' or `cost U V W'"
      | "join" :: rest ->
        let* out, inn = links "join" rest in
        Ok (Join { out; inn })
      | "rejoin" :: k :: rest ->
        let* node = int_tok "rejoin" k in
        let* out, inn = links "rejoin" rest in
        Ok (Rejoin { node; out; inn })
      | [ "rejoin" ] -> Error "rejoin: want `rejoin NODE v:w ... -- u:w ...'"
      | [ "leave"; k ] ->
        let* node = int_tok "leave" k in
        Ok (Leave { node })
      | "leave" :: _ -> Error "leave: want `leave NODE'"
      | [ "pay" ] -> Ok Pay
      | [ "stats" ] -> Ok Stats
      | [ "proto"; p ] ->
        let* proto = int_tok "proto" p in
        Ok (Proto { proto })
      | "proto" :: _ -> Error "proto: want `proto N'"
      | [ "session"; k ] ->
        let* session = int_tok "session" k in
        Ok (Attach { session })
      | "session" :: _ -> Error "session: want `session N'"
      | [ "quit" ] | [ "exit" ] -> Ok Quit
      | t :: _ -> Error (Printf.sprintf "unknown request %S" t)
      | [] -> Error "empty request"
    in
    Result.map Option.some req

let parse_request line =
  match fast_request line with Some r -> Ok (Some r) | None -> parse_tokens line

let endpoint_str (v, w) = Printf.sprintf "%d:%s" v (float_to_string w)

let print_request = function
  | Cost_node { node; cost } ->
    Printf.sprintf "cost %d %s" node (float_to_string cost)
  | Cost_link { u; v; w } ->
    Printf.sprintf "cost %d %d %s" u v (float_to_string w)
  | Join { out; inn } ->
    String.concat " "
      (("join" :: List.map endpoint_str out)
      @ ("--" :: List.map endpoint_str inn))
  | Rejoin { node; out; inn } ->
    String.concat " "
      (("rejoin" :: string_of_int node :: List.map endpoint_str out)
      @ ("--" :: List.map endpoint_str inn))
  | Leave { node } -> Printf.sprintf "leave %d" node
  | Pay -> "pay"
  | Stats -> "stats"
  | Proto { proto } -> Printf.sprintf "proto %d" proto
  | Attach { session } -> Printf.sprintf "session %d" session
  | Quit -> "quit"

let model_str = function `Node -> "node" | `Link -> "link"

let model_of_string = function
  | "node" -> Ok `Node
  | "link" -> Ok `Link
  | s -> Error (Printf.sprintf "bad model %S" s)

(* ---------------- text encoder ----------------

   [src] lines go through a memo that keeps, per source id, the last
   line rendered together with that line's whole input (the path and
   the bit pattern of the charge).  A pay reply re-collected after a
   burst of edits repeats most of its lines byte for byte, and a hit
   blits the stored bytes instead of printing the charge again.  The
   line is a pure function of its key, so nothing is ever invalidated
   and one memo may serve any number of encoders and sessions; the
   server keeps one per session, so a session's clients share it.  A
   miss renders the line and overwrites the entry in place. *)

type memo_line = {
  mutable text : Bytes.t;  (* the line, newline included *)
  mutable tlen : int;
  mutable path : int array;  (* the path it was rendered from *)
  mutable plen : int;
  mutable ctop : int;  (* its charge's bits, as [bits_top] *)
  mutable cmant : int;  (* and [bits_mant] *)
}

type memo = {
  mutable lines : memo_line array;  (* by source id *)
  mutable scratch : int array;  (* a list path, copied into a slice *)
}

(* The empty slot; never written (a miss on it allocates the entry). *)
let no_line =
  { text = Bytes.empty; tlen = 0; path = [||]; plen = 0; ctop = 0; cmant = 0 }

(* Source ids at or above this render fresh, so a stray id cannot size
   the memo; a session's ids are its node indices, far below. *)
let memo_ids = 1 lsl 20

let enc_create () = Wnet_outbuf.create 512
let memo_create () = { lines = [||]; scratch = [||] }
let enc_pending = Wnet_outbuf.pending
let enc_buffer e = e.buf
let enc_offset e = e.off
let enc_reset = Wnet_outbuf.reset
let enc_consume = Wnet_outbuf.consume

(* " key=value", the shape of every counter on a stats line *)
let put_kv e key v =
  put_char e ' ';
  put_string e key;
  put_char e '=';
  put_int e v

(* The one [src] line writer, for the list replies and the pay view
   alike: the path is the slice [hops.(lo) .. hops.(hi - 1)], and the
   charge comes as its bit fields, so no caller boxes a float. *)
let put_served e src (hops : int array) lo hi top mant =
  put_string e "src ";
  put_int e src;
  put_string e ": path ";
  for i = lo to hi - 1 do
    if i > lo then put_string e " -> ";
    put_int e hops.(i)
  done;
  put_string e ", charge ";
  put_float_fields e top mant

let put_paid e served unbounded total =
  put_string e "ok";
  put_kv e "served" served;
  put_kv e "unbounded" unbounded;
  put_string e " total=";
  put_float e total

let rec put_fields e = function
  | [] -> ()
  | (k, v) :: rest ->
    put_kv e k v;
    put_fields e rest

(* One reply line, without its newline. *)
let put_response e = function
  | Ready { proto; model; n; root; domains } ->
    put_string e "ready";
    put_kv e "proto" proto;
    put_string e " model=";
    put_string e (model_str model);
    put_kv e "n" n;
    put_kv e "root" root;
    put_kv e "domains" domains
  | Ack { version; node } ->
    put_string e "ok";
    (match node with Some id -> put_kv e "node" id | None -> ());
    put_kv e "version" version
  | Served { src; path; charge } ->
    let hops = Array.of_list path and b = Int64.bits_of_float charge in
    put_served e src hops 0 (Array.length hops) (bits_top b) (bits_mant b)
  | Paid { served; unbounded; total } -> put_paid e served unbounded total
  | Session_stats st ->
    (* From the layout table, so a counter added to
       [Wnet_session.stats_layout] appears here without touching the
       renderer. *)
    put_string e "ok";
    put_fields e (Wnet_session.to_fields st)
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
    put_string e "server";
    put_kv e "clients" clients;
    put_kv e "requests" requests;
    put_kv e "edits" edits;
    put_kv e "coalesced" coalesced;
    put_kv e "cache_hits" cache_hits;
    put_kv e "cache_misses" cache_misses;
    put_kv e "bytes_in" bytes_in;
    put_kv e "bytes_out" bytes_out
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
    put_string e "shard";
    put_kv e "id" shard;
    put_kv e "conns" conns;
    put_kv e "requests" requests;
    put_kv e "edits" edits;
    put_kv e "coalesced" coalesced;
    put_kv e "inval_passes" inval_passes;
    put_kv e "cache_hits" cache_hits;
    put_kv e "cache_misses" cache_misses;
    put_kv e "repaired" repaired;
    put_kv e "tasks" tasks;
    put_kv e "stolen" stolen;
    put_kv e "bytes_in" bytes_in;
    put_kv e "bytes_out" bytes_out
  | Conn_stats { requests; bytes_in; bytes_out; proto } ->
    put_string e "conn";
    put_kv e "requests" requests;
    put_kv e "bytes_in" bytes_in;
    put_kv e "bytes_out" bytes_out;
    put_kv e "proto" proto
  | Bye -> put_string e "bye"
  | Err "" -> put_string e "err"
  | Err m ->
    put_string e "err ";
    put_string e m

let print_response r =
  let e = Wnet_outbuf.create 128 in
  put_response e r;
  Bytes.sub_string e.buf 0 e.len

let grow_memo m src =
  let old = Array.length m.lines in
  let lines = Array.make (max (src + 1) (2 * old)) no_line in
  Array.blit m.lines 0 lines 0 old;
  m.lines <- lines

let rec same_slice (a : int array) (hops : int array) d i hi =
  i >= hi
  || Array.unsafe_get a (i - d) = Array.unsafe_get hops i
     && same_slice a hops d (i + 1) hi

(* Render the [src] line, then make it the source's memo entry. *)
let render_served e m src hops lo hi top mant =
  let rel = e.len - e.off in
  put_served e src hops lo hi top mant;
  put_char e '\n';
  let start = e.off + rel in
  let l = e.len - start in
  if m.lines.(src) == no_line then
    m.lines.(src) <-
      { text = Bytes.create l; tlen = 0; path = [||]; plen = 0; ctop = 0;
        cmant = 0 };
  let line = m.lines.(src) in
  if Bytes.length line.text < l then line.text <- Bytes.create l;
  Bytes.blit e.buf start line.text 0 l;
  line.tlen <- l;
  let plen = hi - lo in
  if Array.length line.path < plen then line.path <- Array.make plen 0;
  Array.blit hops lo line.path 0 plen;
  line.plen <- plen;
  line.ctop <- top;
  line.cmant <- mant

let encode_served e m src hops lo hi top mant =
  if src < 0 || src >= memo_ids then begin
    put_served e src hops lo hi top mant;
    put_char e '\n'
  end
  else begin
    if src >= Array.length m.lines then grow_memo m src;
    let line = Array.unsafe_get m.lines src in
    if
      line != no_line && line.ctop = top && line.cmant = mant
      && line.plen = hi - lo
      && same_slice line.path hops lo lo hi
    then begin
      ensure e line.tlen;
      Bytes.unsafe_blit line.text 0 e.buf e.len line.tlen;
      e.len <- e.len + line.tlen
    end
    else render_served e m src hops lo hi top mant
  end

let rec store_path (a : int array) i = function
  | [] -> ()
  | v :: rest ->
    Array.unsafe_set a i v;
    store_path a (i + 1) rest

let encode_response e m = function
  | Served { src; path; charge } ->
    (* the list path, copied into the memo's scratch for the writer *)
    let plen = List.length path in
    if Array.length m.scratch < plen then
      m.scratch <- Array.make (max plen (2 * Array.length m.scratch)) 0;
    store_path m.scratch 0 path;
    let b = Int64.bits_of_float charge in
    encode_served e m src m.scratch 0 plen (bits_top b) (bits_mant b)
  | r ->
    put_response e r;
    put_char e '\n'

(* Plain recursion: a [List.iter (encode_response e m)] would allocate
   a closure per reply. *)
let rec encode_responses e m = function
  | [] -> ()
  | r :: rs ->
    encode_response e m r;
    encode_responses e m rs

let encode_pay e m (p : Wnet_session.pay) =
  for i = 0 to p.count - 1 do
    let b = Int64.bits_of_float p.charge.(i) in
    encode_served e m p.src.(i) p.hops p.off.(i) p.off.(i + 1) (bits_top b)
      (bits_mant b)
  done;
  put_paid e p.count p.unbounded p.total;
  put_char e '\n'

(* ---------------- text line decoder ---------------- *)

let max_line = 1 lsl 20

type dec = {
  mutable dbuf : Bytes.t;
  mutable dpos : int;  (* start of the next line *)
  mutable dlen : int;  (* end of fed bytes *)
  mutable scan : int;  (* [dpos, scan) holds no newline *)
  mutable too_long : bool;  (* sticky *)
}

let dec_create () =
  { dbuf = Bytes.create 512; dpos = 0; dlen = 0; scan = 0; too_long = false }

let dec_pending d = d.dlen - d.dpos

let dec_feed d src off len =
  if off < 0 || len < 0 || off + len > Bytes.length src then
    invalid_arg "Wnet_proto.dec_feed: out of range";
  (* compact: drop the lines already taken *)
  if d.dpos > 0 then begin
    Bytes.blit d.dbuf d.dpos d.dbuf 0 (d.dlen - d.dpos);
    d.dlen <- d.dlen - d.dpos;
    d.scan <- d.scan - d.dpos;
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
  d.dlen <- need

let dec_feed_string d s off len = dec_feed d (Bytes.unsafe_of_string s) off len

let rec find_newline b i stop =
  if i >= stop then -1
  else if Bytes.unsafe_get b i = '\n' then i
  else find_newline b (i + 1) stop

let next_line d =
  if d.too_long then `Too_long
  else
    let nl = find_newline d.dbuf d.scan d.dlen in
    let long = if nl < 0 then d.dlen - d.dpos else nl - d.dpos in
    if long > max_line then begin
      d.too_long <- true;
      `Too_long
    end
    else if nl < 0 then begin
      d.scan <- d.dlen;
      `Need_more
    end
    else begin
      let stop =
        if nl > d.dpos && Bytes.unsafe_get d.dbuf (nl - 1) = '\r' then nl - 1
        else nl
      in
      let line = Bytes.sub_string d.dbuf d.dpos (stop - d.dpos) in
      d.dpos <- nl + 1;
      d.scan <- d.dpos;
      `Line line
    end

let dec_take_rest d =
  let rest = Bytes.sub_string d.dbuf d.dpos (d.dlen - d.dpos) in
  d.dpos <- 0;
  d.dlen <- 0;
  d.scan <- 0;
  rest

(* Split [s] at the first occurrence of substring [sep]. *)
let cut ~sep s =
  let n = String.length s and m = String.length sep in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sep then
      Some (String.sub s 0 i, String.sub s (i + m) (n - i - m))
    else go (i + 1)
  in
  go 0

let kv key tok =
  match String.index_opt tok '=' with
  | Some i when String.sub tok 0 i = key ->
    Ok (String.sub tok (i + 1) (String.length tok - i - 1))
  | _ -> Error (Printf.sprintf "expected %s=..., got %S" key tok)

let int_kv key tok =
  let* v = kv key tok in
  int_tok key v

let parse_served line =
  let bad () = Error (Printf.sprintf "bad served line %S" line) in
  match cut ~sep:"src " line with
  | Some ("", rest) -> (
    match cut ~sep:": path " rest with
    | Some (src_s, rest) -> (
      match cut ~sep:", charge " rest with
      | Some (path_s, charge_s) -> (
        match (int_of_string_opt src_s, float_of_string_opt charge_s) with
        | Some src, Some charge -> (
          let hops = tokens path_s |> List.filter (fun t -> t <> "->") in
          let rec ints = function
            | [] -> Some []
            | t :: rest ->
              Option.bind (int_of_string_opt t) (fun i ->
                  Option.map (List.cons i) (ints rest))
          in
          match ints hops with
          | Some path -> Ok (Served { src; path; charge })
          | None -> bad ())
        | _ -> bad ())
      | None -> bad ())
    | None -> bad ())
  | _ -> bad ()

(* The session counters in wire order, straight from the layout table:
   a stats line carries every one of them, as [print_response] writes
   it. *)
let session_counter_keys = Wnet_session.stats_field_names

let parse_session_stats line toks =
  if List.length toks <> Array.length session_counter_keys then
    Error (Printf.sprintf "bad stats line %S" line)
  else begin
    let rec go i acc = function
      | [] -> Result.map (fun st -> Session_stats st)
                (Wnet_session.of_fields (List.rev acc))
      | t :: rest ->
        let* v = int_kv session_counter_keys.(i) t in
        go (i + 1) (v :: acc) rest
    in
    go 0 [] toks
  end

let parse_response line =
  let line = String.trim line in
  match tokens line with
  | [ "ready"; p; m; n; r; d ] ->
    let* proto = int_kv "proto" p in
    let* m = kv "model" m in
    let* model = model_of_string m in
    let* n = int_kv "n" n in
    let* root = int_kv "root" r in
    let* domains = int_kv "domains" d in
    Ok (Ready { proto; model; n; root; domains })
  | [ "ok"; a ] ->
    let* version = int_kv "version" a in
    Ok (Ack { version; node = None })
  | [ "ok"; a; b ] when Result.is_ok (kv "node" a) ->
    let* id = int_kv "node" a in
    let* version = int_kv "version" b in
    Ok (Ack { version; node = Some id })
  | [ "ok"; a; b; c ] ->
    let* served = int_kv "served" a in
    let* unbounded = int_kv "unbounded" b in
    let* t = kv "total" c in
    let* total = float_tok "total" t in
    Ok (Paid { served; unbounded; total })
  | "ok" :: (_ :: _ :: _ :: _ :: _ :: _ :: _ as toks) ->
    parse_session_stats line toks
  | [ "server"; a; b; c; d; e; f; g; h ] ->
    let* clients = int_kv "clients" a in
    let* requests = int_kv "requests" b in
    let* edits = int_kv "edits" c in
    let* coalesced = int_kv "coalesced" d in
    let* cache_hits = int_kv "cache_hits" e in
    let* cache_misses = int_kv "cache_misses" f in
    let* bytes_in = int_kv "bytes_in" g in
    let* bytes_out = int_kv "bytes_out" h in
    Ok
      (Server_stats
         {
           clients;
           requests;
           edits;
           coalesced;
           cache_hits;
           cache_misses;
           bytes_in;
           bytes_out;
         })
  | [ "shard"; a; b; c; d; e; f; g; h; i; j; k; l; m ] ->
    let* shard = int_kv "id" a in
    let* conns = int_kv "conns" b in
    let* requests = int_kv "requests" c in
    let* edits = int_kv "edits" d in
    let* coalesced = int_kv "coalesced" e in
    let* inval_passes = int_kv "inval_passes" f in
    let* cache_hits = int_kv "cache_hits" g in
    let* cache_misses = int_kv "cache_misses" h in
    let* repaired = int_kv "repaired" i in
    let* tasks = int_kv "tasks" j in
    let* stolen = int_kv "stolen" k in
    let* bytes_in = int_kv "bytes_in" l in
    let* bytes_out = int_kv "bytes_out" m in
    Ok
      (Shard_stats
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
         })
  | [ "conn"; a; b; c; p ] ->
    let* requests = int_kv "requests" a in
    let* bytes_in = int_kv "bytes_in" b in
    let* bytes_out = int_kv "bytes_out" c in
    let* proto = int_kv "proto" p in
    Ok (Conn_stats { requests; bytes_in; bytes_out; proto })
  | [ "bye" ] -> Ok Bye
  | [ "err" ] -> Ok (Err "")
  | "err" :: _ -> (
    match cut ~sep:"err " line with
    | Some ("", m) -> Ok (Err m)
    | _ -> Ok (Err ""))
  | "src" :: _ -> parse_served line
  | _ -> Error (Printf.sprintf "unknown response %S" line)

let greeting ?(proto = version) (module S : Wnet_session.S) =
  Ready
    { proto; model = S.model; n = S.n (); root = S.root;
      domains = S.domains }

let ack (a : Wnet_session.ack) = Ack { version = a.version; node = a.node }

(* The pay view as reply values: one [Served] per source, then [Paid]. *)
let rec path_list (hops : int array) lo i acc =
  if i < lo then acc else path_list hops lo (i - 1) (hops.(i) :: acc)

let pay_replies (p : Wnet_session.pay) =
  let rec go i acc =
    if i < 0 then acc
    else
      let path = path_list p.hops p.off.(i) (p.off.(i + 1) - 1) [] in
      go (i - 1) (Served { src = p.src.(i); path; charge = p.charge.(i) } :: acc)
  in
  go (p.count - 1)
    [ Paid { served = p.count; unbounded = p.unbounded; total = p.total } ]

let handle (module S : Wnet_session.S) req =
  try
    match req with
    | Cost_node { node; cost } ->
      [ ack (S.apply (Wnet_session.Set_node_cost { node; cost })) ]
    | Cost_link { u; v; w } ->
      [ ack (S.apply (Wnet_session.Set_link_cost { u; v; w })) ]
    | Join { out; inn } -> [ ack (S.apply (Wnet_session.Join { out; inn })) ]
    | Rejoin { node; out; inn } ->
      [ ack (S.apply (Wnet_session.Rejoin { node; out; inn })) ]
    | Leave { node } -> [ ack (S.apply (Wnet_session.Leave { node })) ]
    | Pay -> pay_replies (S.pay ())
    | Stats -> [ Session_stats (S.stats ()) ]
    | Proto _ ->
      (* Codec switching is transport-level; only framed front-ends
         (the socket server) can honour it. *)
      [ Err "proto: negotiation needs a socket transport" ]
    | Attach _ ->
      (* Session placement is a server concern; the stdin loop and the
         oracle replays host exactly one session. *)
      [ Err "session: attach needs a socket transport" ]
    | Quit -> [ Bye ]
  with
  | Failure m | Invalid_argument m -> [ Err m ]

let handle_line sess line =
  match parse_request line with
  | Ok None -> `Empty
  | Error m -> `Reply [ Err m ]
  | Ok (Some Quit) -> `Quit (handle sess Quit)
  | Ok (Some req) -> `Reply (handle sess req)
