open Wnet_graph

let test_basic_order () =
  let h = Indexed_heap.create 10 in
  Indexed_heap.insert h 3 5.0;
  Indexed_heap.insert h 1 2.0;
  Indexed_heap.insert h 7 9.0;
  Alcotest.(check (pair int (float 0.0))) "min" (1, 2.0) (Indexed_heap.pop_min h);
  Alcotest.(check (pair int (float 0.0))) "next" (3, 5.0) (Indexed_heap.pop_min h);
  Alcotest.(check (pair int (float 0.0))) "last" (7, 9.0) (Indexed_heap.pop_min h);
  Alcotest.(check bool) "empty" true (Indexed_heap.is_empty h)

let test_decrease_key () =
  let h = Indexed_heap.create 5 in
  Indexed_heap.insert h 0 10.0;
  Indexed_heap.insert h 1 20.0;
  Indexed_heap.decrease h 1 1.0;
  Alcotest.(check (pair int (float 0.0))) "decreased wins" (1, 1.0) (Indexed_heap.pop_min h)

let test_tie_break_by_key () =
  let h = Indexed_heap.create 5 in
  Indexed_heap.insert h 4 1.0;
  Indexed_heap.insert h 2 1.0;
  Indexed_heap.insert h 3 1.0;
  Alcotest.(check (pair int (float 0.0))) "smallest id first" (2, 1.0) (Indexed_heap.pop_min h);
  Alcotest.(check (pair int (float 0.0))) "then next" (3, 1.0) (Indexed_heap.pop_min h)

let test_insert_or_decrease () =
  let h = Indexed_heap.create 5 in
  Indexed_heap.insert_or_decrease h 0 5.0;
  Indexed_heap.insert_or_decrease h 0 3.0;
  Indexed_heap.insert_or_decrease h 0 7.0 (* ignored: larger *);
  Alcotest.(check (float 0.0)) "kept min" 3.0 (Indexed_heap.priority h 0)

let test_mem_and_errors () =
  let h = Indexed_heap.create 3 in
  Indexed_heap.insert h 1 1.0;
  Alcotest.(check bool) "mem" true (Indexed_heap.mem h 1);
  Alcotest.(check bool) "not mem" false (Indexed_heap.mem h 0);
  Alcotest.check_raises "double insert"
    (Invalid_argument "Indexed_heap.insert: key already present") (fun () ->
      Indexed_heap.insert h 1 2.0);
  Alcotest.check_raises "decrease absent"
    (Invalid_argument "Indexed_heap.decrease: key absent") (fun () ->
      Indexed_heap.decrease h 0 0.5);
  Alcotest.check_raises "increase rejected"
    (Invalid_argument "Indexed_heap.decrease: new priority is larger") (fun () ->
      Indexed_heap.decrease h 1 9.0)

let test_pop_empty () =
  let h = Indexed_heap.create 1 in
  Alcotest.check_raises "pop empty" Not_found (fun () ->
      ignore (Indexed_heap.pop_min h))

let test_heapsort_random () =
  let r = Test_util.rng 42 in
  for _ = 1 to 20 do
    let n = 1 + Wnet_prng.Rng.int r 200 in
    let h = Indexed_heap.create n in
    let prios = Array.init n (fun _ -> Wnet_prng.Rng.float r 100.0) in
    Array.iteri (fun k p -> Indexed_heap.insert h k p) prios;
    let prev = ref neg_infinity in
    for _ = 1 to n do
      let _, p = Indexed_heap.pop_min h in
      Alcotest.(check bool) "non-decreasing" true (p >= !prev);
      prev := p
    done
  done

let test_random_decrease_consistency () =
  let r = Test_util.rng 7 in
  let n = 100 in
  let h = Indexed_heap.create n in
  let best = Array.make n infinity in
  for k = 0 to n - 1 do
    let p = Wnet_prng.Rng.float r 100.0 in
    best.(k) <- p;
    Indexed_heap.insert h k p
  done;
  for _ = 1 to 500 do
    let k = Wnet_prng.Rng.int r n in
    if Indexed_heap.mem h k then begin
      let p = Wnet_prng.Rng.float r 100.0 in
      if p < best.(k) then begin
        best.(k) <- p;
        Indexed_heap.decrease h k p
      end
    end
  done;
  let popped = ref [] in
  while not (Indexed_heap.is_empty h) do
    popped := Indexed_heap.pop_min h :: !popped
  done;
  List.iter
    (fun (k, p) -> Test_util.check_float "priority preserved" best.(k) p)
    !popped;
  Alcotest.(check int) "all popped" n (List.length !popped)

(* The kernels' path — priorities written through [prios], ordered by
   [touch], popped by [pop_min_key] — against a model that keeps each
   present key's priority and pops the least (priority, key).  Random
   interleavings of inserts, decreases, pops and re-inserts of popped
   keys; priorities come from a small set, so ties are common. *)
let touch_model_prop seed =
  let r = Test_util.rng seed in
  let cap = 1 + Wnet_prng.Rng.int r 24 in
  let h = Indexed_heap.create cap in
  let prio = Indexed_heap.prios h in
  let model = Array.make cap None in
  let popped = ref [] in
  let level () = float_of_int (Wnet_prng.Rng.int r 5) *. 0.5 in
  let touch k p =
    prio.(k) <- p;
    Indexed_heap.touch h k;
    model.(k) <- Some p
  in
  (* keys ascend, so a tie keeps the smaller one *)
  let least () =
    let best = ref None in
    Array.iteri
      (fun k m ->
        match (m, !best) with
        | Some p, Some (_, q) when q <= p -> ()
        | Some p, _ -> best := Some (k, p)
        | None, _ -> ())
      model;
    !best
  in
  for step = 1 to 200 do
    (match Wnet_prng.Rng.int r 4 with
    | 0 -> (
      (* decrease a present key, to a level at most its priority *)
      let k = Wnet_prng.Rng.int r cap in
      match model.(k) with
      | Some p -> touch k (Float.min p (level ()))
      | None -> touch k (level ()))
    | 1 -> (
      (* re-insert a popped key *)
      match !popped with
      | k :: rest ->
        popped := rest;
        if model.(k) = None then touch k (level ())
      | [] -> ())
    | 2 ->
      let k = Wnet_prng.Rng.int r cap in
      if model.(k) = None then touch k (level ())
    | _ -> (
      match least () with
      | None ->
        if not (Indexed_heap.is_empty h) then
          QCheck2.Test.fail_reportf "step %d: model empty, heap holds %d" step
            (Indexed_heap.size h)
      | Some (k, p) ->
        let got = Indexed_heap.pop_min_key h in
        if got <> k then
          QCheck2.Test.fail_reportf "step %d: popped %d, model pops %d (at %g)"
            step got k p;
        model.(k) <- None;
        popped := k :: !popped));
    let present = ref 0 in
    Array.iteri
      (fun k m ->
        let inside = m <> None in
        if inside then incr present;
        if Indexed_heap.mem h k <> inside then
          QCheck2.Test.fail_reportf "step %d: mem %d is %b" step k (not inside);
        match m with
        | Some p when not (Float.equal (Indexed_heap.priority h k) p) ->
          QCheck2.Test.fail_reportf "step %d: priority of %d" step k
        | _ -> ())
      model;
    if Indexed_heap.size h <> !present then
      QCheck2.Test.fail_reportf "step %d: size %d, model %d" step
        (Indexed_heap.size h) !present
  done;
  (* drain: the rest comes out in (priority, key) order *)
  let rec drain () =
    match least () with
    | None -> Indexed_heap.is_empty h
    | Some (k, _) ->
      Indexed_heap.pop_min_key h = k
      && begin
           model.(k) <- None;
           drain ()
         end
  in
  drain ()

let test_binheap_order () =
  let h = Binheap.create () in
  Binheap.push h 3.0 "c";
  Binheap.push h 1.0 "a";
  Binheap.push h 2.0 "b";
  Alcotest.(check (option (pair (float 0.0) string))) "peek" (Some (1.0, "a")) (Binheap.peek_min h);
  Alcotest.(check (option (pair (float 0.0) string))) "pop a" (Some (1.0, "a")) (Binheap.pop_min h);
  Alcotest.(check (option (pair (float 0.0) string))) "pop b" (Some (2.0, "b")) (Binheap.pop_min h);
  Alcotest.(check (option (pair (float 0.0) string))) "pop c" (Some (3.0, "c")) (Binheap.pop_min h);
  Alcotest.(check (option (pair (float 0.0) string))) "empty" None (Binheap.pop_min h)

let test_binheap_duplicates () =
  let h = Binheap.create () in
  Binheap.push h 1.0 0;
  Binheap.push h 1.0 1;
  Binheap.push h 0.5 2;
  Alcotest.(check int) "size" 3 (Binheap.size h);
  let _ = Binheap.pop_min h in
  Alcotest.(check int) "size after pop" 2 (Binheap.size h)

let test_binheap_random_sorted () =
  let r = Test_util.rng 9 in
  let h = Binheap.create () in
  let n = 500 in
  for _ = 1 to n do
    Binheap.push h (Wnet_prng.Rng.float r 1.0) ()
  done;
  let prev = ref neg_infinity in
  for _ = 1 to n do
    match Binheap.pop_min h with
    | None -> Alcotest.fail "premature empty"
    | Some (k, ()) ->
      Alcotest.(check bool) "sorted" true (k >= !prev);
      prev := k
  done

let suite =
  [
    Alcotest.test_case "indexed: pop order" `Quick test_basic_order;
    Alcotest.test_case "indexed: decrease-key" `Quick test_decrease_key;
    Alcotest.test_case "indexed: deterministic ties" `Quick test_tie_break_by_key;
    Alcotest.test_case "indexed: insert_or_decrease" `Quick test_insert_or_decrease;
    Alcotest.test_case "indexed: membership and errors" `Quick test_mem_and_errors;
    Alcotest.test_case "indexed: pop on empty" `Quick test_pop_empty;
    Alcotest.test_case "indexed: heapsort randomized" `Quick test_heapsort_random;
    Alcotest.test_case "indexed: random decrease consistency" `Quick test_random_decrease_consistency;
    Test_util.qcheck_case ~count:300 "indexed: touch/pop = (priority, key) model"
      Test_util.seed_gen touch_model_prop;
    Alcotest.test_case "binheap: order" `Quick test_binheap_order;
    Alcotest.test_case "binheap: duplicate keys" `Quick test_binheap_duplicates;
    Alcotest.test_case "binheap: randomized sort" `Quick test_binheap_random_sorted;
  ]
