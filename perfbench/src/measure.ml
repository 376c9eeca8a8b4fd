(* Clock and order statistics. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* The smallest nonzero step the clock shows between back-to-back
   reads: nothing shorter than this can be timed. *)
let timer_floor_ns () =
  let best = ref max_int in
  for _ = 1 to 20_000 do
    let a = now_ns () in
    let b = now_ns () in
    if b > a && b - a < !best then best := b - a
  done;
  !best

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "median: no samples";
  let a = sorted xs in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean xs =
  if Array.length xs = 0 then invalid_arg "mean: no samples";
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

(* Nearest-rank 99th percentile.  A tail percentile is reported only
   with at least ten samples beyond it, hence 1000 samples. *)
let p99_min_samples = 1000

let p99 xs =
  let n = Array.length xs in
  if n < p99_min_samples then
    Error
      (Printf.sprintf "p99 needs at least %d samples (ten beyond it), got %d"
         p99_min_samples n)
  else
    let rank = int_of_float (Float.ceil (0.99 *. float_of_int n)) in
    Ok (sorted xs).(rank - 1)
