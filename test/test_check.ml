(* Tests for the schedule-exploration / replay / invariant-monitor
   subsystem: choice recording and replay, monitor semantics, every
   standard probe against a deliberately corrupted state, the greedy
   shrinker, bit-identical replay across the workload catalog, and the
   minimized reproducer schedules pinned by the explorer. *)

open Core
module Engine = Machine.Engine
module Faults = Network.Faults
module Schedule = Check.Schedule
module Monitor = Check.Monitor
module Probes = Check.Probes
module Workloads = Check.Workloads
module Explore = Check.Explore

(* --- choice sequences ---------------------------------------------- *)

let test_schedule_record_replay () =
  let s = Schedule.record ~seed:5 in
  let bounds = [ 3; 5; 2; 7; 4 ] in
  let drawn = List.map (fun b -> Schedule.choice s ~tag:"t" b) bounds in
  List.iter2
    (fun b v ->
      Alcotest.(check bool) "in range" true (v >= 0 && v < b))
    bounds drawn;
  Alcotest.(check int) "used" (List.length bounds) (Schedule.used s);
  let r = Schedule.replay (Schedule.trace s) in
  let replayed = List.map (fun b -> Schedule.choice r ~tag:"t" b) bounds in
  Alcotest.(check (list int)) "replay reproduces" drawn replayed;
  (* Past the end of the vector: the unperturbed baseline. *)
  Alcotest.(check int) "exhausted -> 0" 0 (Schedule.choice r ~tag:"t" 9);
  (* Out-of-domain stored values clamp into the live domain. *)
  let c = Schedule.replay [| 7 |] in
  Alcotest.(check int) "clamped" (7 mod 3) (Schedule.choice c ~tag:"t" 3)

(* --- monitor semantics --------------------------------------------- *)

let test_monitor_dedup_and_when () =
  let mon = Monitor.create () in
  let always_calls = ref 0 and quiet_calls = ref 0 in
  Monitor.register mon ~name:"structural" ~when_:Monitor.Always (fun () ->
      incr always_calls;
      [ "boom" ]);
  Monitor.register mon ~name:"conservation" ~when_:Monitor.At_quiescence
    (fun () ->
      incr quiet_calls;
      [ "off-balance" ]);
  Monitor.check_always mon;
  Monitor.check_always mon;
  Alcotest.(check int) "always probe ran twice" 2 !always_calls;
  Alcotest.(check int) "quiescence probe not yet" 0 !quiet_calls;
  Alcotest.(check int)
    "repeat violation deduped" 1
    (List.length (Monitor.violations mon));
  Monitor.check_quiescent mon;
  Alcotest.(check int) "quiescent sweep runs all" 1 !quiet_calls;
  let vs = Monitor.violations mon in
  Alcotest.(check (list (pair string string)))
    "first-seen order"
    [ ("structural", "boom"); ("conservation", "off-balance") ]
    (List.map (fun v -> (v.Monitor.v_probe, v.Monitor.v_detail)) vs);
  Alcotest.(check bool) "sweeps counted" true (Monitor.checks mon >= 3)

(* --- probes vs deliberately corrupted states ----------------------- *)

let p_poke = Pattern.intern "check_poke" ~arity:1
let p_spawn = Pattern.intern "check_spawn" ~arity:1

let cell_cls () =
  Class_def.define ~name:"check_cell" ~state:[| "v" |]
    ~init:(fun _ -> [| Value.int 0 |])
    ~methods:[ (p_poke, fun ctx msg -> Ctx.set ctx 0 (Message.arg msg 0)) ]
    ()

let holder_cls ~cell () =
  Class_def.define ~name:"check_holder" ~state:[| "ref" |]
    ~init:(fun _ -> [| Value.unit |])
    ~methods:
      [
        ( p_spawn,
          fun ctx msg ->
            let target = Value.to_int (Message.arg msg 0) in
            let a = Ctx.create_on ctx ~target cell [] in
            Ctx.send ctx a p_poke [ Value.int 42 ];
            Ctx.set ctx 0 (Value.Addr a) );
      ]
    ()

(* The scheduler probe must notice a hand-planted stale queue claim and
   a context left suspended. *)
let test_probe_sched_corruption () =
  let cell = cell_cls () in
  let sys = System.boot ~nodes:2 ~classes:[ cell ] () in
  let a = System.create_root sys ~node:0 cell [] in
  System.send_boot sys a p_poke [ Value.int 1 ];
  System.run sys;
  Alcotest.(check (list string)) "healthy state" [] (Probes.sched sys ());
  let obj = Option.get (System.lookup_obj sys a) in
  obj.Kernel.in_sched_q <- true;
  (match Probes.sched sys () with
  | [] -> Alcotest.fail "stale in-sched-queue claim not flagged"
  | _ -> ());
  obj.Kernel.in_sched_q <- false;
  Alcotest.(check (list string)) "clean again" [] (Probes.sched sys ())

(* The reliable probe must notice a frame whose ack was hand-dropped
   (unacked in-flight entry at quiescence) and a sequence hole parked in
   a reorder buffer. *)
let test_probe_reliable_corruption () =
  let config =
    {
      Engine.default_config with
      Engine.faults = Some (Faults.plan ~seed:1 ~drop:0.05 ());
    }
  in
  let m = Engine.create ~config ~nodes:2 () in
  Alcotest.(check (list string)) "healthy state" [] (Probes.reliable m ());
  let rel = Option.get (Engine.reliable m) in
  let am =
    { Machine.Am.handler = 0; src = 0; size_bytes = 8; payload = Machine.Am.Ping }
  in
  (* A data frame leaves but its ack never comes back. *)
  (match Machine.Reliable.push rel ~src:0 ~dst:1 ~now:0 am with
  | `Send _ | `Queued -> ());
  (match Probes.reliable m () with
  | [] -> Alcotest.fail "hand-dropped ack not flagged"
  | _ -> ());
  (* A later frame arrives while an earlier one never does. *)
  (match Machine.Reliable.on_data rel ~src:1 ~dst:0 ~seq:3 am with
  | `Reordered -> ()
  | `Deliver _ | `Duplicate -> Alcotest.fail "expected a reorder park");
  let details = Probes.reliable m () in
  Alcotest.(check bool)
    "sequence hole flagged" true
    (List.exists
       (fun d ->
         (* the reorder-buffer line mentions the stuck frame count *)
         String.length d > 0
         && List.exists
              (fun needle ->
                let rec find i =
                  i + String.length needle <= String.length d
                  && (String.sub d i (String.length needle) = needle
                     || find (i + 1))
                in
                find 0)
              [ "reorder" ])
       details)

(* The coalesce probe must notice frames parked in an aggregation buffer
   when the machine stops. *)
let test_probe_coalesce_corruption () =
  let config =
    {
      Engine.default_config with
      Engine.coalesce = Some Machine.Coalesce.default_config;
    }
  in
  let m = Engine.create ~config ~nodes:2 () in
  let h =
    Engine.register_handler m Machine.Am.Service ~name:"check-null"
      (fun _ _ _ -> ())
  in
  Alcotest.(check (list string)) "healthy state" [] (Probes.coalesce m ());
  (* The first message bypasses aggregation while the injection port is
     idle; the burst behind it parks in the buffer. *)
  for _ = 1 to 3 do
    Engine.send_am m ~src:(Engine.node m 0) ~dst:1 ~handler:h ~size_bytes:8
      Machine.Am.Ping
  done;
  (match Probes.coalesce m () with
  | [] -> Alcotest.fail "parked aggregation buffer not flagged"
  | _ -> ());
  Engine.run m;
  Alcotest.(check (list string)) "drained after run" [] (Probes.coalesce m ())

(* The chain probe must notice a forwarding cycle built by hand: after a
   real migration, the live record is corrupted into a stub pointing
   back at the origin, closing a loop no schedule can produce. *)
let test_probe_migrate_cycle () =
  let cell = cell_cls () in
  let sys = System.boot ~nodes:4 ~classes:[ cell ] () in
  let mig = Migrate.attach sys in
  let a = System.create_root sys ~node:0 cell [] in
  System.send_boot sys a p_poke [ Value.int 1 ];
  System.run sys;
  Alcotest.(check bool) "move accepted" true (Migrate.move mig ~canon:a ~to_:1);
  System.run sys;
  Alcotest.(check (list string))
    "healthy state" []
    (Probes.migrate_chains ~nodes:4 mig ());
  (* Find the live record at its new host and turn it into a stub
     pointing back at the origin's stub. *)
  let live = ref None in
  for node = 0 to 3 do
    Hashtbl.iter
      (fun _ (o : Kernel.obj) ->
        if
          o.Kernel.self = a
          && (match o.Kernel.vftp.Kernel.vft_kind with
             | Kernel.Vft_forward _ -> false
             | _ -> true)
        then live := Some o)
      (System.rt sys node).Kernel.objects
  done;
  let live = Option.get !live in
  live.Kernel.vftp <-
    Vft.forward
      {
        Kernel.fwd_canon = a;
        fwd_to = { Value.node = 0; Value.slot = a.Value.slot };
        fwd_epoch = 99;
      };
  match Probes.migrate_chains ~nodes:4 mig () with
  | [] -> Alcotest.fail "hand-built forwarding cycle not flagged"
  | _ -> ()

(* The collector's audit must notice a forged stub weight. *)
let test_probe_dgc_forged_weight () =
  let cell = cell_cls () in
  let holder = holder_cls ~cell () in
  let sys = System.boot ~nodes:2 ~classes:[ cell; holder ] () in
  let g = Dgc.attach sys in
  let h = System.create_root sys ~node:0 holder [] in
  System.send_boot sys h p_spawn [ Value.int 1 ];
  System.run sys;
  Dgc.settle g;
  Alcotest.(check (list string)) "healthy state" [] (Dgc.audit g);
  let canon =
    match System.lookup_obj sys h with
    | Some o -> (
        match o.Kernel.state.(0) with
        | Value.Addr a -> a
        | _ -> Alcotest.fail "holder kept no reference")
    | None -> Alcotest.fail "holder vanished"
  in
  let holder_node =
    if Dgc.has_stub g ~node:0 ~canon then 0
    else if Dgc.has_stub g ~node:1 ~canon then 1
    else Alcotest.fail "no stub to corrupt"
  in
  Dgc.Testing.forge_stub_weight g ~node:holder_node ~canon 7;
  match Dgc.audit g with
  | [] -> Alcotest.fail "forged stub weight not flagged"
  | _ -> ()

(* --- the shrinker -------------------------------------------------- *)

(* A synthetic workload that fails exactly when choices 2 and 5 are both
   nonzero: the shrinker must strip everything else and trim the tail. *)
let synthetic =
  {
    Workloads.w_name = "synthetic";
    w_run =
      (fun sched ->
        let c = Array.init 8 (fun _ -> Schedule.choice sched ~tag:"syn" 4) in
        let bad = c.(2) <> 0 && c.(5) <> 0 in
        {
          Workloads.r_hash = Hashtbl.hash (Array.to_list c);
          r_violations = (if bad then [ ("app", "both perturbed") ] else []);
        });
  }

let test_shrink_minimal () =
  let full = Array.make 8 1 in
  Alcotest.(check bool)
    "full vector fails" true
    (Explore.failed (Explore.run_replay synthetic full));
  let min_v = Explore.shrink synthetic full in
  Alcotest.(check (array int)) "minimal reproducer" [| 0; 0; 1; 0; 0; 1 |] min_v

(* --- the shared burst harness --------------------------------------- *)

module Harness = Check.Harness

(* One round of 4-message bursts on channels 0->3, 0->6, 1->4, 1->7,
   2->5 and 2->0 of a perfect 8-node machine. *)
let burst_machine () =
  let m = Engine.create ~nodes:8 () in
  let s = Harness.seq m in
  Harness.send_rounds s ~rounds:1 ~start:0 ~burst:4;
  (m, s)

(* A node's delivery table, read and overwritten through the recovery
   app's snapshot format. *)
let table app node : (int * int) list =
  Marshal.from_bytes (Option.get (app.Recover.Manager.a_snapshot node)) 0

let set_table app node slice =
  app.Recover.Manager.a_restore node (Marshal.to_bytes slice [])

let test_harness_verdict () =
  let m, s = burst_machine () in
  Engine.run m;
  let v = Harness.verdict s in
  Alcotest.(check (list string)) "clean run" [] v.Harness.findings;
  Alcotest.(check (list int))
    "clean counts" [ 0; 0; 0 ]
    [ v.Harness.lost; v.Harness.dup; v.Harness.reordered ];
  let m, s = burst_machine () in
  let app = Harness.recovery_app s in
  (* Node 3 already expects message 1 from node 0, so message 0 arrives
     out of order. *)
  set_table app 3 [ (0, 1) ];
  Engine.run m;
  (* Then node 4 forgets one delivery from node 1 and node 5 counts one
     more from node 2 than was sent. *)
  let bump node ~src d =
    set_table app node
      (List.map
         (fun (s, k) -> (s, if s = src then k + d else k))
         (table app node))
  in
  bump 4 ~src:1 (-1);
  bump 5 ~src:2 1;
  let v = Harness.verdict s in
  Alcotest.(check (list int))
    "lost, dup, reordered" [ 1; 1; 1 ]
    [ v.Harness.lost; v.Harness.dup; v.Harness.reordered ];
  Alcotest.(check (list string))
    "findings"
    [
      "channel 0->3: received 0, expected 1 (FIFO or exactly-once broken)";
      "channel 1->4: delivered 3 of 4 sent";
      "channel 2->5: delivered 5 of 4 sent";
    ]
    v.Harness.findings

let test_harness_recovery_app () =
  let m, s = burst_machine () in
  Engine.run m;
  let app = Harness.recovery_app s in
  let before = table app 3 in
  Alcotest.(check (list (pair int int))) "node 3's slice" [ (0, 4) ] before;
  let snap = Option.get (app.Recover.Manager.a_snapshot 3) in
  app.Recover.Manager.a_reset 3;
  Alcotest.(check (list (pair int int))) "reset wipes it" [] (table app 3);
  Alcotest.(check int) "reset shows as loss" 4 (Harness.verdict s).Harness.lost;
  app.Recover.Manager.a_restore 3 snap;
  Alcotest.(check (list (pair int int))) "restored" before (table app 3);
  Alcotest.(check (list string))
    "clean again" [] (Harness.verdict s).Harness.findings

(* --- bit-identical replay across the catalog ----------------------- *)

let test_replay_identical () =
  List.iter
    (fun w ->
      let o = Explore.run_recorded w ~seed:11 in
      Alcotest.(check bool)
        (w.Workloads.w_name ^ " baseline clean")
        false (Explore.failed o);
      let r = Explore.replay w o.Explore.o_trace in
      Alcotest.(check bool)
        (w.Workloads.w_name ^ " replay bit-identical")
        true
        (r.Explore.rp_identical
        && r.Explore.rp_outcome.Explore.o_hash = o.Explore.o_hash))
    Workloads.all

(* --- pinned reproducers -------------------------------------------- *)

(* Every schedule the explorer once minimized must now pass — and still
   replay bit-identically. A failure here means a fixed bug regressed. *)
let test_regression_schedules () =
  (* dune runtest runs in the test build directory; `dune exec` from the
     workspace root sees the source tree instead. *)
  let dir = if Sys.file_exists "schedules" then "schedules" else "test/schedules" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".txt")
    |> List.sort compare
  in
  Alcotest.(check bool) "pinned schedules present" true (List.length files >= 2);
  List.iter
    (fun f ->
      let r = Explore.replay_file (Filename.concat dir f) in
      Alcotest.(check bool) (f ^ " bit-identical") true r.Explore.rp_identical;
      Alcotest.(check (list (pair string string)))
        (f ^ " passes") []
        r.Explore.rp_outcome.Explore.o_violations;
      Alcotest.(check (option string))
        (f ^ " no crash") None
        r.Explore.rp_outcome.Explore.o_crash)
    files

let () =
  Alcotest.run "check"
    [
      ( "schedule",
        [ Alcotest.test_case "record/replay" `Quick test_schedule_record_replay ]
      );
      ( "monitor",
        [
          Alcotest.test_case "dedup and when" `Quick test_monitor_dedup_and_when;
        ] );
      ( "probes",
        [
          Alcotest.test_case "sched corruption" `Quick
            test_probe_sched_corruption;
          Alcotest.test_case "reliable corruption" `Quick
            test_probe_reliable_corruption;
          Alcotest.test_case "coalesce corruption" `Quick
            test_probe_coalesce_corruption;
          Alcotest.test_case "migrate cycle" `Quick test_probe_migrate_cycle;
          Alcotest.test_case "dgc forged weight" `Quick
            test_probe_dgc_forged_weight;
        ] );
      ("shrink", [ Alcotest.test_case "minimal" `Quick test_shrink_minimal ]);
      ( "harness",
        [
          Alcotest.test_case "verdict flags sabotage" `Quick
            test_harness_verdict;
          Alcotest.test_case "recovery app round trip" `Quick
            test_harness_recovery_app;
        ] );
      ( "explore",
        [
          Alcotest.test_case "replay identical" `Quick test_replay_identical;
          Alcotest.test_case "pinned schedules" `Quick
            test_regression_schedules;
        ] );
    ]
