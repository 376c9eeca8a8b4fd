(* Readers for the Linux /proc files the harness samples.  The parsers
   take the file's text, so the tests can feed them fixtures; the
   readers keep the file open and re-read it from offset 0, which a
   /proc seq_file regenerates on every read. *)

let fail fmt = Printf.ksprintf failwith fmt

let int_field what s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> fail "%s: bad integer %S" what s

let tokens s = String.split_on_char ' ' s |> List.filter (fun t -> t <> "")

(* /proc/<pid>/stat: utime + stime (fields 14 and 15), in clock ticks,
   summed over every thread of the process.  The command name (field 2)
   may hold spaces and parentheses, so fields are counted after the
   last ')'. *)
let stat_cpu_ticks text =
  match String.rindex_opt text ')' with
  | None -> fail "stat: no command field"
  | Some i -> (
    let rest = tokens (String.sub text (i + 1) (String.length text - i - 1)) in
    (* [rest] starts at field 3. *)
    match (List.nth_opt rest 11, List.nth_opt rest 12) with
    | Some u, Some s -> int_field "stat utime" u + int_field "stat stime" (String.trim s)
    | _ -> fail "stat: too few fields")

(* /proc/<pid>/schedstat and /proc/<pid>/task/<tid>/schedstat: time on
   CPU in nanoseconds, then wait time and timeslices. *)
let schedstat_ns text =
  match tokens (String.trim text) with
  | ns :: _ -> int_field "schedstat" ns
  | [] -> fail "schedstat: empty"

(* /proc/<pid>/status: the VmHWM line (peak resident set), in kB. *)
let status_hwm_kb text =
  let line =
    List.find_opt
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' text)
  in
  match line with
  | None -> fail "status: no VmHWM line"
  | Some l -> (
    match tokens (String.trim (String.sub l 6 (String.length l - 6))) with
    | [ kb; "kB" ] -> int_field "VmHWM" kb
    | _ -> fail "status: bad VmHWM line %S" l)

(* /proc/<pid>/status: the CPUs the process may run on, as a list. *)
let status_cpus text =
  let key = "Cpus_allowed_list:" in
  let k = String.length key in
  match
    List.find_opt
      (fun l -> String.length l > k && String.sub l 0 k = key)
      (String.split_on_char '\n' text)
  with
  | Some l -> String.trim (String.sub l k (String.length l - k))
  | None -> fail "status: no Cpus_allowed_list line"

(* /proc/stat: the steal column of the aggregate "cpu" line (ticks the
   hypervisor ran someone else while a vCPU of this guest wanted to
   run), and the number of per-CPU lines. *)
let host_steal_ticks text =
  match String.split_on_char '\n' text with
  | first :: _ -> (
    match tokens first with
    | "cpu" :: fields when List.length fields >= 8 ->
      int_field "steal" (List.nth fields 7)
    | _ -> fail "stat: bad aggregate cpu line %S" first)
  | [] -> fail "stat: empty"

let host_cores text =
  List.length
    (List.filter
       (fun l ->
         String.length l > 3
         && String.sub l 0 3 = "cpu"
         && l.[3] >= '0' && l.[3] <= '9')
       (String.split_on_char '\n' text))

(* USER_HZ, the unit of /proc tick counts; fixed at 100 on Linux. *)
let ticks_per_s = 100

type reader = { fd : Unix.file_descr; buf : Bytes.t }

let open_reader path =
  { fd = Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0; buf = Bytes.create 65536 }

let read r =
  ignore (Unix.lseek r.fd 0 Unix.SEEK_SET);
  let n = Unix.read r.fd r.buf 0 (Bytes.length r.buf) in
  Bytes.sub_string r.buf 0 n

let close_reader r = Unix.close r.fd

let read_file path =
  let r = open_reader path in
  Fun.protect ~finally:(fun () -> close_reader r) (fun () -> read r)

(* CPU time of every thread of [pid], in ns.  The thread list is taken
   once; the serving processes run a fixed set of threads after
   start-up. *)
type cpu = reader list

let open_cpu pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Sys.readdir dir |> Array.to_list
  |> List.map (fun tid -> open_reader (Printf.sprintf "%s/%s/schedstat" dir tid))

let cpu_ns (c : cpu) = List.fold_left (fun acc r -> acc + schedstat_ns (read r)) 0 c
let close_cpu (c : cpu) = List.iter close_reader c
