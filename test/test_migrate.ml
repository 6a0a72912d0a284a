(* Tests for the object-migration subsystem: manual moves with
   forwarding stubs, location caching and chain collapse, FIFO and
   exactly-once dispatch under migration (with and without network
   faults), the policy layer, and the migration statistics report. *)

open Core
module Engine = Machine.Engine
module Faults = Network.Faults

let p_add = Pattern.intern "mig_add" ~arity:1
let p_report = Pattern.intern "mig_report" ~arity:0
let p_next = Pattern.intern "mig_next" ~arity:0

(* An accumulator cell: [add k] folds k into the state twice over — an
   order-sensitive hash and a plain sum — and appends k to [trace], so a
   test can check both content and arrival order. [report] publishes the
   state into [result]. *)
let cell_cls ~result ~trace () =
  Class_def.define ~name:"mig_cell" ~state:[| "hash"; "sum" |]
    ~init:(fun _ -> [| Value.int 0; Value.int 0 |])
    ~methods:
      [
        ( p_add,
          fun ctx msg ->
            let k = Value.to_int (Message.arg msg 0) in
            trace := k :: !trace;
            Ctx.set ctx 0 (Value.int ((31 * Value.to_int (Ctx.get ctx 0)) + k));
            Ctx.set ctx 1 (Value.int (Value.to_int (Ctx.get ctx 1) + k)) );
        ( p_report,
          fun ctx _ ->
            result :=
              Some (Value.to_int (Ctx.get ctx 0), Value.to_int (Ctx.get ctx 1))
        );
      ]
    ()

let expected_hash_sum ks =
  List.fold_left (fun (h, s) k -> ((31 * h) + k, s + k)) (0, 0) ks

(* A driver that sends [count] sequenced [add]s to [target], one per
   scheduling slice (so migrations can interleave with the stream), then
   a final [report]. *)
let driver_cls () =
  Class_def.define ~name:"mig_driver" ~state:[| "target"; "i"; "count" |]
    ~init:(fun args ->
      match args with
      | [ target; count ] -> [| target; Value.int 0; count |]
      | _ -> invalid_arg "mig_driver")
    ~methods:
      [
        ( p_next,
          fun ctx _ ->
            let target =
              match Ctx.get ctx 0 with
              | Value.Addr a -> a
              | _ -> assert false
            in
            let i = Value.to_int (Ctx.get ctx 1) in
            let count = Value.to_int (Ctx.get ctx 2) in
            if i < count then begin
              Ctx.send ctx target p_add [ Value.int i ];
              Ctx.set ctx 1 (Value.int (i + 1));
              Ctx.send ctx (Ctx.self ctx) p_next []
            end
            else Ctx.send ctx target p_report [] );
      ]
    ()

(* The object's current live record, wherever migration put it. *)
let final_record sys ~nodes canon =
  let rec scan node =
    if node >= nodes then None
    else
      let rt = System.rt sys node in
      let found =
        Hashtbl.fold
          (fun _ (o : Kernel.obj) acc ->
            match acc with
            | Some _ -> acc
            | None ->
                if
                  o.Kernel.self = canon
                  &&
                  match o.Kernel.vftp.Kernel.vft_kind with
                  | Kernel.Vft_forward _ -> false
                  | _ -> true
                then Some o
                else None)
          rt.Kernel.objects None
      in
      match found with Some o -> Some o | None -> scan (node + 1)
  in
  scan 0

let check_conserved m =
  Alcotest.(check (pair int int))
    "no held or limbo'd residue" (0, 0) (Migrate.residual m);
  Alcotest.(check bool)
    (Printf.sprintf "stub chain <= 1 (got %d)" (Migrate.max_stub_chain m))
    true
    (Migrate.max_stub_chain m <= 1)

(* --- manual migration --------------------------------------------- *)

let test_manual_move () =
  let result = ref None and trace = ref [] in
  let cls = cell_cls ~result ~trace () in
  let sys = System.boot ~nodes:4 ~classes:[ cls ] () in
  let m = Migrate.attach sys in
  let cell = System.create_root sys ~node:0 cls [] in
  System.send_boot sys cell p_add [ Value.int 1 ];
  System.run sys;
  Alcotest.(check bool) "move accepted" true (Migrate.move m ~canon:cell ~to_:2);
  System.run sys;
  Alcotest.(check int) "now hosted on node 2" 2 (Migrate.locate m cell);
  Alcotest.(check int) "one stub left behind" 1 (Migrate.stub_count m ~node:0);
  Alcotest.(check int) "one migration" 1 (Migrate.migrations m);
  (* The mail address is unchanged: senders keep using it and the stub
     re-posts for them. *)
  System.send_boot sys cell p_add [ Value.int 10 ];
  System.send_boot sys cell p_report [];
  System.run sys;
  Alcotest.(check (option (pair int int)))
    "state travelled with the object"
    (Some (expected_hash_sum [ 1; 10 ]))
    !result;
  Alcotest.(check bool) "stub actually forwarded" true (Migrate.forwarded m > 0);
  check_conserved m;
  let d = Diagnostics.survey sys in
  Alcotest.(check bool) "clean quiescence" true (Diagnostics.is_clean d);
  Alcotest.(check bool) "diagnostics count the stub" true
    (List.mem_assoc 0 d.Diagnostics.forwarding_stubs)

let test_move_rejections () =
  let result = ref None and trace = ref [] in
  let cls = cell_cls ~result ~trace () in
  let sys = System.boot ~nodes:2 ~classes:[ cls ] () in
  let m = Migrate.attach sys in
  let cell = System.create_root sys ~node:0 cls [] in
  System.send_boot sys cell p_add [ Value.int 1 ];
  System.run sys;
  Alcotest.(check bool) "same node refused" false
    (Migrate.move m ~canon:cell ~to_:0);
  Alcotest.(check bool) "out of range refused" false
    (Migrate.move m ~canon:cell ~to_:7);
  Alcotest.(check int) "nothing moved" 0 (Migrate.migrations m)

let test_chain_collapse_and_revival () =
  let result = ref None and trace = ref [] in
  let cls = cell_cls ~result ~trace () in
  let sys = System.boot ~nodes:6 ~classes:[ cls ] () in
  let m = Migrate.attach sys in
  let cell = System.create_root sys ~node:0 cls [] in
  System.send_boot sys cell p_add [ Value.int 1 ];
  System.run sys;
  (* Hop the object across three hosts, messaging between hops so the
     stubs actually work, then check every old stub points one hop from
     home (the install-time update broadcast). *)
  List.iter
    (fun to_ ->
      Alcotest.(check bool)
        (Printf.sprintf "hop to %d" to_)
        true
        (Migrate.move m ~canon:cell ~to_);
      System.run sys;
      System.send_boot sys cell p_add [ Value.int to_ ];
      System.run sys)
    [ 1; 2; 3 ];
  Alcotest.(check int) "hosted on node 3" 3 (Migrate.locate m cell);
  Alcotest.(check int) "stubs on each previous host" 3
    (Migrate.stub_count m ~node:0 + Migrate.stub_count m ~node:1
   + Migrate.stub_count m ~node:2);
  check_conserved m;
  (* Returning home must revive the original record in place: the
     canonical node ends with a live object and no stub. *)
  Alcotest.(check bool) "move home accepted" true
    (Migrate.move m ~canon:cell ~to_:0);
  System.run sys;
  Alcotest.(check int) "back home" 0 (Migrate.locate m cell);
  Alcotest.(check int) "no stub at home" 0 (Migrate.stub_count m ~node:0);
  System.send_boot sys cell p_report [];
  System.run sys;
  Alcotest.(check (option (pair int int)))
    "all four hosts' deposits survived"
    (Some (expected_hash_sum [ 1; 1; 2; 3 ]))
    !result;
  check_conserved m;
  (* Everything above rode the migration counters. *)
  Alcotest.(check int) "four migrations" 4 (Migrate.migrations m);
  Alcotest.(check int) "installs match moves" 4
    (Simcore.Stats.get (System.stats sys) "migrate.in")

(* --- ordering ------------------------------------------------------ *)

let run_stream ?machine_config ~count ~moves () =
  let result = ref None and trace = ref [] in
  let cell = cell_cls ~result ~trace () in
  let driver = driver_cls () in
  let sys =
    System.boot ?machine_config ~nodes:6 ~classes:[ cell; driver ] ()
  in
  let m = Migrate.attach sys in
  let target = System.create_root sys ~node:0 cell [] in
  let drv =
    System.create_root sys ~node:4 driver
      [ Value.addr target; Value.int count ]
  in
  System.send_boot sys drv p_next [];
  (* Interleave migrations with the stream at engine level. *)
  List.iter
    (fun (time, to_) ->
      Engine.schedule_at (System.machine sys) ~time (fun () ->
          ignore (Migrate.move m ~canon:target ~to_)))
    moves;
  System.run sys;
  (m, sys, result, trace)

let check_stream_outcome ~count (m, sys, result, trace) =
  let ks = List.init count Fun.id in
  Alcotest.(check (option (pair int int)))
    "order-sensitive state correct"
    (Some (expected_hash_sum ks))
    !result;
  Alcotest.(check (list int)) "dispatched exactly once, in order" ks
    (List.rev !trace);
  check_conserved m;
  Alcotest.(check bool) "clean quiescence" true
    (Diagnostics.is_clean (Diagnostics.survey sys))

let stream_moves =
  [ (30_000, 1); (80_000, 2); (140_000, 3); (200_000, 5); (260_000, 2) ]

let test_fifo_under_migration () =
  let ((m, _, _, _) as outcome) =
    run_stream ~count:40 ~moves:stream_moves ()
  in
  check_stream_outcome ~count:40 outcome;
  Alcotest.(check bool) "migrations actually interleaved" true
    (Migrate.migrations m >= 2);
  Alcotest.(check bool) "stubs forwarded mid-stream" true
    (Migrate.forwarded m > 0)

let test_fifo_under_migration_and_faults () =
  let plan = Faults.plan ~seed:11 ~drop:0.2 ~duplicate:0.15 ~jitter_ns:4_000 () in
  let machine_config = { Engine.default_config with Engine.faults = Some plan } in
  let ((m, sys, _, _) as outcome) =
    run_stream ~machine_config ~count:40 ~moves:stream_moves ()
  in
  check_stream_outcome ~count:40 outcome;
  Alcotest.(check bool) "migrations actually interleaved" true
    (Migrate.migrations m >= 2);
  Alcotest.(check bool) "the network was actually hostile" true
    (Engine.packets_dropped (System.machine sys) > 0)

(* --- policies ------------------------------------------------------ *)

let addr node slot = { Value.node; slot }

let test_policy_decide () =
  let cand ?(queued = 0) ?dom ?(dom_n = 0) ?(total = 0) slot =
    {
      Migrate.Policy.cand_canon = addr 0 slot;
      cand_queued = queued;
      cand_dominant_peer = dom;
      cand_dominant_count = dom_n;
      cand_total_recv = total;
    }
  in
  let view ~load ~neighbors ~cands =
    {
      Migrate.Policy.v_node = 0;
      v_load = load;
      v_neighbors = neighbors;
      v_candidates = cands;
    }
  in
  let lt = Migrate.Policy.Load_threshold { factor = 2.0; min_queue = 1; max_moves = 2 } in
  (* Unknown neighbours: never push into the void. *)
  Alcotest.(check int) "no known neighbour, no move" 0
    (List.length
       (Migrate.Policy.decide lt
          (view ~load:50 ~neighbors:[ (1, None); (2, None) ]
             ~cands:[ cand ~queued:5 7 ])));
  (* Busiest candidates go first, scattered over the under-loaded
     neighbours (least-loaded gets the busiest). *)
  let ds =
    Migrate.Policy.decide lt
      (view ~load:10
         ~neighbors:[ (1, Some 4); (2, Some 1); (3, None) ]
         ~cands:[ cand ~queued:1 7; cand ~queued:9 8; cand ~queued:4 9 ])
  in
  Alcotest.(check (list (pair int int)))
    "two busiest scattered: node 2 then node 1"
    [ (8, 2); (9, 1) ]
    (List.map
       (fun d ->
         (d.Migrate.Policy.d_canon.Value.slot, d.Migrate.Policy.d_to))
       ds);
  (* Below threshold: stay put. *)
  Alcotest.(check int) "below threshold, no move" 0
    (List.length
       (Migrate.Policy.decide lt
          (view ~load:2
             ~neighbors:[ (1, Some 4); (2, Some 1) ]
             ~cands:[ cand ~queued:9 8 ])));
  let ap = Migrate.Policy.Affinity_pull { min_msgs = 5; max_moves = 4 } in
  let view5 ~cands =
    { (view ~load:0 ~neighbors:[] ~cands) with Migrate.Policy.v_node = 5 }
  in
  let ds =
    Migrate.Policy.decide ap
      (view5
         ~cands:
           [
             (* strict majority from node 3: pulled *)
             cand ~dom:3 ~dom_n:8 ~total:10 7;
             (* already local majority: stays *)
             cand ~dom:5 ~dom_n:9 ~total:9 8;
             (* no strict majority: stays *)
             cand ~dom:2 ~dom_n:5 ~total:10 9;
             (* too few messages: stays *)
             cand ~dom:4 ~dom_n:3 ~total:4 10;
             (* majority from a higher node id: stays (pulling only
                downhill breaks mutual-pursuit swaps) *)
             cand ~dom:9 ~dom_n:8 ~total:10 11;
           ])
  in
  Alcotest.(check (list (pair int int)))
    "only the majority-remote downhill candidate moves"
    [ (7, 3) ]
    (List.map
       (fun d ->
         (d.Migrate.Policy.d_canon.Value.slot, d.Migrate.Policy.d_to))
       ds)

let test_policy_tick_moves () =
  let result = ref None and trace = ref [] in
  let cls = cell_cls ~result ~trace () in
  let sys = System.boot ~nodes:2 ~classes:[ cls ] () in
  (* A policy that pushes everything movable on node 0 to node 1. *)
  let policy =
    Migrate.Policy.Custom
      (fun v ->
        if v.Migrate.Policy.v_node = 0 then
          List.map
            (fun c ->
              { Migrate.Policy.d_canon = c.Migrate.Policy.cand_canon; d_to = 1 })
            v.Migrate.Policy.v_candidates
        else [])
  in
  let m = Migrate.attach ~policy sys in
  let cell = System.create_root sys ~node:0 cls [] in
  System.send_boot sys cell p_add [ Value.int 3 ];
  System.run sys;
  Alcotest.(check int) "tick moves the cell" 1 (Migrate.policy_tick m ~node:0);
  System.run sys;
  Alcotest.(check int) "cell now on node 1" 1 (Migrate.locate m cell);
  Alcotest.(check int) "second tick finds nothing" 0
    (Migrate.policy_tick m ~node:0)

(* --- the acceptance property --------------------------------------- *)

(* Known solution counts for small boards. *)
let queens_solutions = [| 1; 1; 0; 0; 2; 10; 4; 40 |]

(* Under any fault plan and any migration schedule, the program computes
   the same answers as the undisturbed run and quiesces with nothing
   lost: a deterministic pseudo-random policy keeps objects hopping all
   run long. *)
let scramble_policy p salt =
  let counter = ref 0 in
  Migrate.Policy.Custom
    (fun v ->
      incr counter;
      let h =
        (1_000_003 * !counter) + (7919 * v.Migrate.Policy.v_node) + salt
      in
      match v.Migrate.Policy.v_candidates with
      | [] -> []
      | cands ->
          let pick = List.nth cands (abs h mod List.length cands) in
          let to_ = abs (h / 7) mod p in
          if to_ = v.Migrate.Policy.v_node then []
          else
            [ { Migrate.Policy.d_canon = pick.Migrate.Policy.cand_canon;
                d_to = to_ } ])

let run_queens_scrambled ~n ~p ~salt ~faults =
  let machine_config =
    match faults with
    | None -> Engine.default_config
    | Some plan -> { Engine.default_config with Engine.faults = Some plan }
  in
  let cls = Apps.Nqueens_par.solver_cls () in
  let sys = System.boot ~machine_config ~nodes:p ~classes:[ cls ] () in
  let m =
    Migrate.attach ~policy:(scramble_policy p salt) ~interval_ns:5_000 sys
  in
  let root =
    System.create_root sys ~node:0 cls
      [ Value.int n; Value.int Apps.Queens_board.empty_packed; Value.unit ]
  in
  System.send_boot sys root (Pattern.intern "expand" ~arity:0) [];
  System.run sys;
  let solutions =
    match final_record sys ~nodes:p root with
    | Some o -> Value.to_int o.Kernel.state.(4)
    | None -> -1
  in
  (m, sys, solutions)

let prop_scrambled_queens =
  QCheck.Test.make ~count:10 ~name:"queens under random migration+faults"
    QCheck.(
      quad (int_range 4 6) (int_range 2 8) (int_range 0 1000) (int_range 0 2))
    (fun (n, p, salt, fault_kind) ->
      let faults =
        match fault_kind with
        | 0 -> None
        | 1 -> Some (Faults.plan ~seed:salt ~drop:0.1 ~jitter_ns:2_000 ())
        | _ ->
            Some
              (Faults.plan ~seed:salt ~drop:0.05 ~duplicate:0.1
                 ~jitter_ns:1_000 ())
      in
      let m, sys, solutions = run_queens_scrambled ~n ~p ~salt ~faults in
      let held, limbo = Migrate.residual m in
      solutions = queens_solutions.(n)
      && held = 0 && limbo = 0
      && Migrate.max_stub_chain m <= 1
      && Diagnostics.is_clean (Diagnostics.survey sys))

let test_scramble_determinism () =
  (* Same inputs, same machine: migration keeps runs reproducible. *)
  let run () =
    let m, sys, solutions =
      run_queens_scrambled ~n:5 ~p:4 ~salt:77
        ~faults:(Some (Faults.plan ~seed:9 ~drop:0.1 ~duplicate:0.05 ()))
    in
    ( solutions,
      Migrate.migrations m,
      Migrate.forwarded m,
      Simcore.Stats.get (System.stats sys) "send.remote" )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "bit-identical reruns" true (a = b);
  let solutions, migrations, _, _ = a in
  Alcotest.(check int) "right answer" 10 solutions;
  Alcotest.(check bool) "objects really moved" true (migrations > 0)

let () =
  Alcotest.run "migrate"
    [
      ( "manual",
        [
          Alcotest.test_case "move, forward, locate" `Quick test_manual_move;
          Alcotest.test_case "rejections" `Quick test_move_rejections;
          Alcotest.test_case "chain collapse and revival" `Quick
            test_chain_collapse_and_revival;
        ] );
      ( "ordering",
        [
          Alcotest.test_case "fifo under migration" `Quick
            test_fifo_under_migration;
          Alcotest.test_case "fifo under migration and faults" `Quick
            test_fifo_under_migration_and_faults;
        ] );
      ( "policy",
        [
          Alcotest.test_case "pure decisions" `Quick test_policy_decide;
          Alcotest.test_case "tick applies moves" `Quick test_policy_tick_moves;
        ] );
      ( "acceptance",
        [
          QCheck_alcotest.to_alcotest prop_scrambled_queens;
          Alcotest.test_case "determinism" `Quick test_scramble_determinism;
        ] );
    ]
