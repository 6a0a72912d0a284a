(* Tests for the open-loop traffic subsystem: the sharded KV/session
   tier (get/put/cas/fan-out mget, exactly-once version audit), the
   seeded open-loop arrival process, the latency-percentile report, and
   the determinism properties (a seeded schedule replays bit-identically
   across two runs and under recorded-choice replay). *)

open Core
module Engine = Machine.Engine
module Kv = Apps.Kv_store
module Loadgen = Traffic.Loadgen
module Report = Traffic.Report
module Explore = Check.Explore
module Workloads = Check.Workloads

let boot_tier ?machine_config ?(nodes = 4) ?(shards = 4) ?keys_per_shard
    ?mget_fan () =
  let kv = Kv.create ?keys_per_shard ?mget_fan ~shards () in
  let sys = System.boot ?machine_config ~nodes ~classes:(Kv.classes kv) () in
  Kv.spawn kv sys;
  (kv, sys)

let run_open_loop ?machine_config ?(nodes = 4) ?(shards = 4) ?keys_per_shard
    ?mget_fan ?(mix = Loadgen.default_mix) ?(process = Loadgen.Poisson)
    ?(rate = 300_000) ?(requests = 200) ?(seed = 7) () =
  let kv, sys =
    boot_tier ?machine_config ~nodes ~shards ?keys_per_shard ?mget_fan ()
  in
  let lg =
    Loadgen.launch
      { Loadgen.default_config with seed; process; rate_rps = rate; requests; mix }
      sys kv
  in
  System.run sys;
  (kv, sys, lg)

(* --- the service tier ------------------------------------------------ *)

let test_open_loop_clean_run () =
  let kv, sys, lg = run_open_loop () in
  Alcotest.(check int) "all offered requests injected" 200 (Loadgen.injected lg);
  Alcotest.(check int) "all completed" 200 (Kv.completed kv);
  Alcotest.(check int) "no pending" 0 (Kv.pending kv);
  Alcotest.(check (list string)) "audit clean" [] (Loadgen.audit lg sys);
  Alcotest.(check bool)
    "diagnostics clean" true
    (Diagnostics.is_clean (Diagnostics.survey sys));
  let r = Report.of_run lg sys in
  Alcotest.(check int) "report completed" 200 r.Report.r_completed;
  Alcotest.(check int) "report timeouts" 0 r.Report.r_timeouts;
  Alcotest.(check int) "report errors" 0 r.Report.r_errors;
  Alcotest.(check bool) "p50 positive" true (r.Report.r_p50_ns > 0.);
  Alcotest.(check bool)
    "percentiles ordered" true
    (r.Report.r_p50_ns <= r.Report.r_p99_ns
    && r.Report.r_p99_ns <= r.Report.r_p999_ns);
  Alcotest.(check bool) "goodput positive" true (r.Report.r_goodput_rps > 0.)

let test_mget_fanout () =
  let mix = { Loadgen.m_get = 0; m_put = 0; m_cas = 0; m_mget = 1 } in
  let kv, sys, lg = run_open_loop ~mix ~requests:64 ~mget_fan:3 () in
  let s = Kv.stats kv in
  Alcotest.(check int) "every request is an mget" 64 s.Kv.mget_ok;
  Alcotest.(check int) "nothing else completed" 64 (Kv.completed kv);
  Alcotest.(check (list string)) "audit clean" [] (Loadgen.audit lg sys)

let test_cas_version_conservation () =
  let mix = { Loadgen.m_get = 0; m_put = 1; m_cas = 1; m_mget = 0 } in
  let kv, sys, lg = run_open_loop ~mix ~requests:120 () in
  let s = Kv.stats kv in
  Alcotest.(check int)
    "every request completed" 120
    (s.Kv.put_ok + s.Kv.cas_ok + s.Kv.cas_fail);
  Alcotest.(check int)
    "versions balance successful writes"
    (s.Kv.put_ok + s.Kv.cas_ok)
    (Kv.applied_versions kv sys);
  Alcotest.(check (list string)) "audit clean" [] (Loadgen.audit lg sys)

let test_fixed_rate_process () =
  let kv, sys, lg =
    run_open_loop ~process:Loadgen.Fixed ~rate:500_000 ~requests:100 ()
  in
  ignore kv;
  Alcotest.(check (list string)) "audit clean" [] (Loadgen.audit lg sys);
  (* Fixed-rate arrivals without perturbation: the last injection is
     (requests - 1) periods after the first. *)
  Alcotest.(check bool)
    "run spans the injection window" true
    (System.elapsed sys >= 1_000 + (99 * 2_000))

(* --- composition with faults, a crash window, and migration ---------- *)

let test_faults_crash_migration_composition () =
  let plan =
    Network.Faults.plan ~seed:11 ~drop:0.05 ~duplicate:0.02 ~jitter_ns:1_000
      ~crashes:
        [ { Network.Faults.node = 1; from_ns = 80_000; until_ns = 140_000 } ]
      ()
  in
  let machine_config =
    { Engine.default_config with Engine.faults = Some plan }
  in
  let kv = Kv.create ~shards:4 ~keys_per_shard:8 () in
  let sys =
    System.boot ~machine_config ~nodes:4 ~classes:(Kv.classes kv) ()
  in
  let machine = System.machine sys in
  Kv.spawn kv sys;
  let mig = Migrate.attach sys in
  let g = Dgc.attach ~interval_ns:150_000 sys in
  Engine.schedule_at machine ~time:50_000 (fun () ->
      ignore (Migrate.move mig ~canon:(Kv.shard_addr kv 1) ~to_:3));
  Engine.schedule_at machine ~time:150_000 (fun () ->
      ignore (Migrate.move mig ~canon:(Kv.shard_addr kv 2) ~to_:0));
  let lg =
    Loadgen.launch
      { Loadgen.default_config with seed = 3; rate_rps = 250_000; requests = 150 }
      sys kv
  in
  System.run sys;
  Dgc.settle g;
  Alcotest.(check (list string))
    "exactly-once audit clean under faults + crash + migration" []
    (Loadgen.audit lg sys);
  Alcotest.(check int) "reliable drained" 0 (Engine.reliable_in_flight machine);
  Alcotest.(check bool)
    "packets were actually dropped" true
    (Engine.packets_dropped machine > 0);
  Alcotest.(check bool)
    "diagnostics clean" true
    (Diagnostics.is_clean (Diagnostics.survey sys));
  Alcotest.(check (list string)) "dgc audit clean" [] (Dgc.audit g)

(* --- report / JSON --------------------------------------------------- *)

let test_report_json_fields () =
  let _, sys, lg = run_open_loop ~requests:50 () in
  let r = Report.of_run lg sys in
  let path = Filename.temp_file "bench_traffic" ".json" in
  Services.Bench_json.write ~path (Report.json_fields r);
  let p99 = Services.Bench_json.read_int_field ~path ~key:"p99_ns" in
  Alcotest.(check bool) "p99_ns field round-trips" true (Option.is_some p99);
  Alcotest.(check (option int))
    "completed field round-trips" (Some 50)
    (Services.Bench_json.read_int_field ~path ~key:"completed");
  Sys.remove path

let test_json_duplicate_key_rejected () =
  let path = Filename.temp_file "bench_dup" ".json" in
  Sys.remove path;
  Alcotest.check_raises "repeated key"
    (Invalid_argument "Bench_json.write: duplicate key \"domains\"")
    (fun () ->
      Services.Bench_json.(
        write ~path [ ("domains", Int 4); ("smoke", Bool true); ("domains", Int 1) ]));
  Alcotest.(check bool) "no file written" false (Sys.file_exists path)

(* --- determinism properties ------------------------------------------ *)

let traffic_workload () =
  match Workloads.find "traffic" with
  | Some w -> w
  | None -> Alcotest.fail "traffic workload not in catalog"

(* Satellite property: a seeded open-loop arrival schedule replays
   bit-identically — the same Timeline hash across two recorded runs of
   the same seed, and again under recorded-choice replay. *)
let prop_open_loop_replay_deterministic =
  QCheck.Test.make ~count:8 ~name:"open-loop schedule replays bit-identically"
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let wl = traffic_workload () in
      let o1 = Explore.run_recorded wl ~seed in
      let o2 = Explore.run_recorded wl ~seed in
      if o1.Explore.o_hash <> o2.Explore.o_hash then
        QCheck.Test.fail_reportf "two recorded runs of seed %d diverged" seed;
      if Explore.failed o1 then
        QCheck.Test.fail_reportf "recorded run violated invariants: %s"
          (String.concat "; "
             (List.map
                (fun (p, d) -> p ^ ": " ^ d)
                o1.Explore.o_violations));
      let r = Explore.replay wl o1.Explore.o_trace in
      if
        (not r.Explore.rp_identical)
        || r.Explore.rp_outcome.Explore.o_hash <> o1.Explore.o_hash
      then
        QCheck.Test.fail_reportf
          "recorded-choice replay of seed %d is not bit-identical" seed;
      true)

let test_direct_two_runs_identical () =
  (* The same determinism without the check harness: two identical
     direct runs produce identical timelines and identical reports. *)
  let go () =
    let kv, sys =
      boot_tier ~nodes:4 ~shards:4 ()
    in
    let tl = Services.Timeline.attach sys in
    let lg =
      Loadgen.launch
        { Loadgen.default_config with seed = 21; rate_rps = 350_000; requests = 80 }
        sys kv
    in
    System.run sys;
    let h = Services.Timeline.hash tl in
    Services.Timeline.detach tl;
    (h, Report.of_run lg sys)
  in
  let h1, r1 = go () and h2, r2 = go () in
  Alcotest.(check bool) "timeline hashes equal" true (h1 = h2);
  Alcotest.(check (float 0.0001)) "p99 equal" r1.Report.r_p99_ns r2.Report.r_p99_ns;
  Alcotest.(check int) "completed equal" r1.Report.r_completed r2.Report.r_completed

(* --- histogram quantiles (satellite) --------------------------------- *)

let () =
  Alcotest.run "traffic"
    [
      ( "tier",
        [
          Alcotest.test_case "open-loop clean run" `Quick
            test_open_loop_clean_run;
          Alcotest.test_case "mget fan-out" `Quick test_mget_fanout;
          Alcotest.test_case "cas version conservation" `Quick
            test_cas_version_conservation;
          Alcotest.test_case "fixed-rate process" `Quick
            test_fixed_rate_process;
          Alcotest.test_case "faults + crash + migration composition" `Quick
            test_faults_crash_migration_composition;
        ] );
      ( "report",
        [
          Alcotest.test_case "json fields" `Quick test_report_json_fields;
          Alcotest.test_case "json duplicate key rejected" `Quick
            test_json_duplicate_key_rejected;
          Alcotest.test_case "two direct runs identical" `Quick
            test_direct_two_runs_identical;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_open_loop_replay_deterministic ] );
    ]
