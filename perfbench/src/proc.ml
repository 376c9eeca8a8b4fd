(* Child processes: the server or the batch runner.  Every child is
   registered so that a harness failure still stops and reaps it. *)

type t = {
  pid : int;
  stdin : Unix.file_descr option;  (** our end of its stdin, when piped *)
  stdout : Unix.file_descr;  (** our end of its stdout *)
}

let live : t list ref = ref []

(* The children run without OCAMLRUNPARAM, so the runtime's defaults
   are what is measured. *)
let env () =
  Unix.environment () |> Array.to_list
  |> List.filter (fun kv ->
         not
           (List.exists
              (fun k -> String.starts_with ~prefix:(k ^ "=") kv)
              [ "OCAMLRUNPARAM"; "CAMLRUNPARAM" ]))
  |> Array.of_list

let spawn ?(pipe_stdin = false) prog args =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let in_r, in_w =
    if pipe_stdin then
      let r, w = Unix.pipe ~cloexec:true () in
      (r, Some w)
    else (Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0, None)
  in
  let pid = Unix.create_process_env prog (Array.of_list (prog :: args)) (env ()) in_r out_w Unix.stderr in
  Unix.close out_w;
  Unix.close in_r;
  let p = { pid; stdin = in_w; stdout = out_r } in
  live := p :: !live;
  p

(* Ask the child to stop (SIGTERM drains the server), give it ten
   seconds, then kill it; always reap it. *)
let stop p =
  if List.memq p !live then begin
    live := List.filter (fun q -> q != p) !live;
    Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) p.stdin;
    (try Unix.kill p.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let rec wait tries =
      match Unix.waitpid [ Unix.WNOHANG ] p.pid with
      | 0, _ when tries > 0 ->
        Unix.sleepf 0.01;
        wait (tries - 1)
      | 0, _ ->
        (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] p.pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait tries
    in
    wait 1000;
    try Unix.close p.stdout with Unix.Unix_error _ -> ()
  end

let stop_all () = List.iter stop !live
