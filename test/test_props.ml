(* Property-based tests (qcheck) for core data structures and runtime
   invariants. *)

open Core

let to_alcotest = QCheck_alcotest.to_alcotest

(* --- Event queue behaves like a stable sort --- *)

let prop_event_queue_sorts =
  QCheck.Test.make ~name:"event_queue sorts stably" ~count:200
    QCheck.(list (pair (int_bound 1000) small_int))
    (fun events ->
      let q = Simcore.Event_queue.create () in
      List.iter (fun (t, v) -> Simcore.Event_queue.add q ~time:t v) events;
      let rec drain acc =
        match Simcore.Event_queue.pop q with
        | Some (t, v) -> drain ((t, v) :: acc)
        | None -> List.rev acc
      in
      let popped = drain [] in
      (* Stable sort on time: equal-time events keep insertion order. *)
      let expected =
        List.stable_sort (fun (a, _) (b, _) -> compare a b) events
      in
      popped = expected)

(* --- Event queue against a reference model --- *)

module EQ = Simcore.Event_queue

(* The reference: a list sorted by (time, insertion seq); the payload is
   the seq itself, so every entry is distinguishable. *)
let model_insert model entry = List.merge compare model [ entry ]

type eq_op = Add of int | Take | Min

let eq_op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun t -> Add t) (int_bound 20));
        (2, return Take);
        (1, return Min);
      ])

let pp_eq_op = function
  | Add t -> Printf.sprintf "add %d" t
  | Take -> "take"
  | Min -> "min"

let prop_event_queue_model =
  QCheck.Test.make ~name:"event_queue add/take/min_time match the model"
    ~count:300
    (QCheck.make
       ~print:QCheck.Print.(list pp_eq_op)
       QCheck.Gen.(list_size (int_range 0 300) eq_op_gen))
    (fun ops ->
      let q = EQ.create () in
      let seq = ref 0 in
      let model = ref [] in
      List.for_all
        (fun op ->
          match op with
          | Add time ->
              EQ.add q ~time !seq;
              model := model_insert !model (time, !seq);
              incr seq;
              EQ.size q = List.length !model
          | Min -> (
              match !model with
              | [] -> EQ.min_time q = max_int
              | (t, _) :: _ -> EQ.min_time q = t)
          | Take -> (
              match !model with
              | [] -> (
                  match EQ.take q with
                  | _ -> false
                  | exception Invalid_argument _ -> true)
              | (_, v) :: rest ->
                  model := rest;
                  EQ.take q = v))
        ops)

(* A chooser picks among same-time candidates ordered by insertion seq;
   out-of-range picks fall back to 0. Times come from a small range so
   ties are common, and at least six entries make the heap deeper than
   one 4-ary level, so candidates sit below the root's children. *)
let prop_event_queue_tie_break =
  QCheck.Test.make ~name:"event_queue tie-break picks candidate k" ~count:300
    QCheck.(
      pair (list_of_size Gen.(int_range 6 80) (int_bound 4)) (list small_nat))
    (fun (times, picks) ->
      let q = EQ.create () in
      List.iteri (fun seq time -> EQ.add q ~time seq) times;
      let model = ref (List.sort compare (List.mapi (fun s t -> (t, s)) times)) in
      let picks = ref (if picks = [] then [ 1 ] else picks) in
      let next_pick () =
        match !picks with
        | k :: rest ->
            picks := rest @ [ k ];
            k mod 7
        | [] -> 0
      in
      let offered = ref [||] in
      let pick = ref 0 in
      EQ.set_tie_break q
        (Some
           (fun vals ->
             offered := Array.copy vals;
             !pick));
      let ok = ref true in
      while !model <> [] do
        let tmin = fst (List.hd !model) in
        let candidates =
          List.filter_map
            (fun (t, s) -> if t = tmin then Some s else None)
            !model
        in
        let n = List.length candidates in
        pick := next_pick ();
        offered := [||];
        let k = if !pick >= n then 0 else !pick in
        let expected = List.nth candidates k in
        let got = EQ.take q in
        if got <> expected then ok := false;
        (* The chooser runs only for two or more candidates, and sees
           them in insertion order. *)
        if n >= 2 && !offered <> Array.of_list candidates then ok := false;
        if n < 2 && !offered <> [||] then ok := false;
        model := List.filter (fun (_, s) -> s <> expected) !model
      done;
      !ok && EQ.is_empty q)

(* No taken value stays reachable from the queue: not the root taken
   plainly, not a middle candidate removed under a tie-break, and not a
   value that moved to refill a hole and was taken last of all. *)
let test_event_queue_retention () =
  let check case =
    let q = EQ.create () in
    let w = Weak.create 1 in
    let target_time =
      match case with `Root -> -1 | `Tie -> 0 | `Drain -> 100
    in
    let[@inline never] fill () =
      for i = 1 to 30 do
        EQ.add q ~time:(i mod 4) (Bytes.make 8 'x')
      done;
      let v = Bytes.make 8 'y' in
      Weak.set w 0 (Some v);
      EQ.add q ~time:target_time v
    in
    fill ();
    if case = `Tie then
      (* The target is the last-inserted of the time-0 candidates. *)
      EQ.set_tie_break q (Some (fun vals -> Array.length vals - 1));
    let[@inline never] take_target () =
      let rec go () = if Bytes.get (EQ.take q) 0 = 'y' then () else go () in
      go ()
    in
    take_target ();
    Gc.full_major ();
    Alcotest.(check bool) "taken value collected" true
      (Option.is_none (Weak.get w 0));
    Alcotest.(check int) "rest still queued"
      (if case = `Drain then 0 else 30)
      (EQ.size q)
  in
  check `Root;
  check `Tie;
  check `Drain

(* --- Torus metric properties --- *)

let topo_gen =
  QCheck.Gen.(
    pair (int_range 1 8) (int_range 1 8) >>= fun (x, y) ->
    pair (return (x, y)) (pair (int_bound ((x * y) - 1)) (int_bound ((x * y) - 1))))

let prop_hops_metric =
  QCheck.Test.make ~name:"torus hops is a symmetric bounded metric" ~count:300
    (QCheck.make topo_gen)
    (fun ((dims, (a, b))) ->
      let x, y = dims in
      let t = Network.Topology.create ~x ~y in
      let d = Network.Topology.hops t a b in
      d = Network.Topology.hops t b a
      && d <= (x / 2) + (y / 2)
      && (d = 0) = (a = b))

let prop_neighbors_distance_one =
  QCheck.Test.make ~name:"neighbors are exactly one hop away" ~count:100
    QCheck.(pair (int_range 2 8) (int_range 2 8))
    (fun (x, y) ->
      let t = Network.Topology.create ~x ~y in
      List.for_all
        (fun n ->
          List.for_all
            (fun m -> Network.Topology.hops t n m = 1)
            (Network.Topology.neighbors t n))
        (List.init (x * y) Fun.id))

(* --- Fabric preserves transmission order per channel --- *)

let prop_fabric_fifo =
  QCheck.Test.make ~name:"fabric delivers per-channel FIFO" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 30) (int_bound 2000))
    (fun sizes ->
      let t = Network.Topology.create ~x:4 ~y:4 in
      let f = Network.Fabric.create t in
      let deliveries =
        List.map
          (fun size ->
            Network.Fabric.send f ~now:0
              (Network.Packet.make ~src:0 ~dst:9 ~size_bytes:size ()))
          sizes
      in
      let rec strictly_increasing = function
        | a :: (b :: _ as rest) -> a < b && strictly_increasing rest
        | _ -> true
      in
      strictly_increasing deliveries)

let prop_contention_floor =
  QCheck.Test.make ~name:"contended delivery never beats the uncontended floor"
    ~count:100
    QCheck.(
      list_of_size
        (Gen.int_range 1 20)
        (triple (int_bound 15) (int_bound 15) (int_bound 2000)))
    (fun sends ->
      let topo = Network.Topology.create ~x:4 ~y:4 in
      let config =
        { Network.Fabric.default_config with Network.Fabric.contention = true }
      in
      let f = Network.Fabric.create ~config topo in
      List.for_all
        (fun (src, dst, size) ->
          let p = Network.Packet.make ~src ~dst ~size_bytes:size () in
          let arrival = Network.Fabric.send f ~now:0 p in
          src = dst || arrival >= Network.Fabric.transit_time f p)
        sends)

(* --- Packed boards agree with list boards --- *)

let board_gen =
  QCheck.Gen.(
    int_range 1 13 >>= fun n ->
    list_size (int_range 0 (min n 13)) (int_bound (n - 1)) >>= fun cols ->
    return (n, cols))

let prop_pack_roundtrip =
  QCheck.Test.make ~name:"packed board roundtrips" ~count:500
    (QCheck.make board_gen)
    (fun (_n, cols) ->
      Apps.Queens_board.unpack (Apps.Queens_board.pack cols) = cols)

let prop_safe_agrees =
  QCheck.Test.make ~name:"safe_packed agrees with safe" ~count:500
    (QCheck.make QCheck.Gen.(pair board_gen (int_bound 12)))
    (fun ((_n, cols), col) ->
      Apps.Queens_board.safe ~cols ~col
      = Apps.Queens_board.safe_packed
          ~packed:(Apps.Queens_board.pack cols)
          ~col)

let prop_safe_cols_agree =
  QCheck.Test.make ~name:"safe_cols_packed agrees with safe_cols" ~count:300
    (QCheck.make board_gen)
    (fun (n, cols) ->
      Apps.Queens_board.safe_cols ~n ~cols
      = Apps.Queens_board.safe_cols_packed ~n
          ~packed:(Apps.Queens_board.pack cols))

(* --- Parallel N-queens equals sequential for any machine shape --- *)

let prop_par_eq_seq =
  QCheck.Test.make ~name:"parallel N-queens = sequential" ~count:12
    (QCheck.make
       QCheck.Gen.(
         pair (int_range 4 7) (pair (int_range 1 17) (int_range 0 2))))
    (fun (n, (p, policy_idx)) ->
      let placement =
        match policy_idx with
        | 0 -> Kernel.Round_robin
        | 1 -> Kernel.Random_node
        | _ -> Kernel.Self_node
      in
      let rt_config = { System.default_rt_config with Kernel.placement } in
      let seq = Apps.Nqueens_seq.solve ~n in
      let par = Apps.Nqueens_par.run ~rt_config ~nodes:p ~n () in
      seq.Apps.Nqueens_seq.solutions = par.Apps.Nqueens_par.solutions
      && seq.nodes + 1 = par.objects_created)

(* --- Message conservation: every inter-node object message sent is
   dispatched exactly once at its destination --- *)

let prop_message_conservation =
  QCheck.Test.make ~name:"inter-node messages conserved" ~count:10
    (QCheck.make QCheck.Gen.(pair (int_range 4 7) (int_range 2 9)))
    (fun (n, p) ->
      let cls = Apps.Nqueens_par.solver_cls () in
      let sys = System.boot ~nodes:p ~classes:[ cls ] () in
      let root =
        System.create_root sys ~node:0 cls
          [ Value.int n; Value.int Apps.Queens_board.empty_packed; Value.unit ]
      in
      System.send_boot sys root (Pattern.intern "expand" ~arity:0) [];
      System.run sys;
      let st = System.stats sys in
      let get = Simcore.Stats.get st in
      let recv =
        get "recv.remote.dormant" + get "recv.remote.active"
        + get "recv.remote.fault" + get "recv.remote.restore"
        + get "recv.remote.naive_buffered" + get "recv.remote.depth_limited"
      in
      get "send.remote" = recv
      && get "am.sent.object-message" = get "send.remote"
      && get "create.remote" = get "create.remote.applied"
      && get "create.remote" = get "chunk.refill")

(* --- Determinism: identical configurations give identical runs --- *)

let prop_determinism =
  QCheck.Test.make ~name:"same seed, same virtual history" ~count:8
    (QCheck.make QCheck.Gen.(pair (int_range 4 7) (int_range 1 9)))
    (fun (n, p) ->
      let run () =
        let r = Apps.Nqueens_par.run ~nodes:p ~n () in
        (r.Apps.Nqueens_par.elapsed, r.messages, r.heap_words)
      in
      run () = run ())

(* --- Fault tolerance: any fault plan leaves the answer intact --- *)

let prop_faulty_runs_exact =
  QCheck.Test.make
    ~name:"any fault plan: exactly-once delivery, deterministic, same answer"
    ~count:8
    (QCheck.make
       QCheck.Gen.(
         pair
           (pair (int_range 4 6) (int_range 2 8))
           (pair
              (pair (int_range 1 1_000_000) (int_bound 5_000))
              (pair (float_bound_inclusive 0.12) (float_bound_inclusive 0.12)))))
    (fun ((n, p), ((seed, jitter_ns), (drop, duplicate))) ->
      let plan = Network.Faults.plan ~seed ~drop ~duplicate ~jitter_ns () in
      let machine_config =
        { Machine.Engine.default_config with Machine.Engine.faults = Some plan }
      in
      let run () =
        let r, sys =
          Apps.Nqueens_par.run_sys ~machine_config ~nodes:p ~n ()
        in
        (r, Diagnostics.is_clean (Diagnostics.survey sys))
      in
      let r, clean = run () in
      let r2, _ = run () in
      let seq = Apps.Nqueens_seq.solve ~n in
      (* Clean quiescence: every loss was repaired, nothing left buffered
         or unacknowledged. The answer matches the sequential solver, and
         the whole run (times, counts) replays exactly from the seed. *)
      clean
      && r.Apps.Nqueens_par.solutions = seq.Apps.Nqueens_seq.solutions
      && r = r2)

let prop_fault_free_plan_identical =
  QCheck.Test.make ~name:"fault-free plan is bit-identical to no plan" ~count:6
    (QCheck.make QCheck.Gen.(pair (int_range 4 6) (int_range 1 9)))
    (fun (n, p) ->
      let machine_config =
        {
          Machine.Engine.default_config with
          Machine.Engine.faults = Some (Network.Faults.plan ~seed:123 ());
        }
      in
      Apps.Nqueens_par.run ~machine_config ~nodes:p ~n ()
      = Apps.Nqueens_par.run ~nodes:p ~n ())

(* --- Value sizes --- *)

let value_gen =
  let open QCheck.Gen in
  sized (fix (fun self size ->
      if size <= 1 then
        oneof
          [
            return Value.unit;
            map Value.bool bool;
            map Value.int small_int;
            map Value.float (float_bound_inclusive 10.);
            map Value.str (string_size (int_bound 12));
          ]
      else
        oneof
          [
            map Value.list (list_size (int_bound 4) (self (size / 2)));
            map Value.tuple (list_size (int_bound 4) (self (size / 2)));
          ]))

let prop_value_size_positive =
  QCheck.Test.make ~name:"value wire size is positive and additive" ~count:300
    (QCheck.make value_gen)
    (fun v ->
      let w = Value.size_words v in
      w >= 1
      && Value.size_bytes v = 4 * w
      && Value.size_words (Value.list [ v; v ]) = 1 + (2 * w))

(* --- Pattern interning is a bijection on names --- *)

let prop_pattern_intern =
  QCheck.Test.make ~name:"pattern interning stable" ~count:100
    QCheck.(string_gen_of_size (Gen.int_range 1 8) Gen.printable)
    (fun s ->
      let name = "prop_" ^ s in
      let arity =
        match Pattern.lookup name with
        | Some existing -> Pattern.arity existing
        | None -> String.length s mod 3
      in
      let p1 = Pattern.intern name ~arity in
      let p2 = Pattern.intern name ~arity in
      p1 = p2 && Pattern.name p1 = name && Pattern.arity p1 = arity)

let () =
  Alcotest.run "properties"
    [
      ( "simcore",
        [
          to_alcotest prop_event_queue_sorts;
          to_alcotest prop_event_queue_model;
          to_alcotest prop_event_queue_tie_break;
          Alcotest.test_case "event_queue retains no taken value" `Quick
            test_event_queue_retention;
        ] );
      ( "network",
        [
          to_alcotest prop_hops_metric;
          to_alcotest prop_neighbors_distance_one;
          to_alcotest prop_fabric_fifo;
          to_alcotest prop_contention_floor;
        ] );
      ( "board",
        [
          to_alcotest prop_pack_roundtrip;
          to_alcotest prop_safe_agrees;
          to_alcotest prop_safe_cols_agree;
        ] );
      ( "runtime",
        [
          to_alcotest prop_par_eq_seq;
          to_alcotest prop_message_conservation;
          to_alcotest prop_determinism;
        ] );
      ( "faults",
        [
          to_alcotest prop_faulty_runs_exact;
          to_alcotest prop_fault_free_plan_identical;
        ] );
      ( "values",
        [ to_alcotest prop_value_size_positive; to_alcotest prop_pattern_intern ] );
    ]
