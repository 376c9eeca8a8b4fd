(* The run's result line: one JSON object with exactly the keys
   correct, attempted, failed and metrics. *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let line ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun { name; value; unit_ } ->
        if not (Float.is_finite value) then
          failwith (Printf.sprintf "metric %s is not finite" name);
        Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}" (json_string name) value
          (json_string unit_))
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " m)
