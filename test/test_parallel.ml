(* Tests for the parallel simulation engine: the cross-domain SPSC
   mailbox, the round barrier, the conservative lookahead (horizon)
   computation, sharded stats/histogram merging, per-node RNG stream
   derivation, and the headline determinism property — the sharded
   open-loop KV workload produces identical Timeline hashes and
   identical merged KV metric folds at 1, 2, 4 and 8 domains. Also the
   guard-path contract (a rejected [run_parallel] — contention, a
   tie-break hook, a fault plan, recovery hooks, engine-level timers
   armed by DGC or a migration policy — is side-effect-free)
   and the structured [Lookahead_violation] error. *)

open Core
module Engine = Machine.Engine
module Coalesce = Machine.Coalesce
module Manager = Recover.Manager
module Fabric = Network.Fabric
module Kv = Apps.Kv_store
module Loadgen = Traffic.Loadgen
module Spsc = Simcore.Spsc
module Barrier = Simcore.Barrier
module Rng = Simcore.Rng
module Stats = Simcore.Stats
module Histogram = Simcore.Histogram

(* --- SPSC mailbox ---------------------------------------------------- *)

let test_spsc_fifo () =
  let q = Spsc.create () in
  Alcotest.(check bool) "fresh queue empty" true (Spsc.is_empty q);
  for i = 0 to 99 do
    Spsc.push q i
  done;
  Alcotest.(check (option int)) "pop oldest" (Some 0) (Spsc.pop q);
  Alcotest.(check (option int)) "pop next" (Some 1) (Spsc.pop q);
  Alcotest.(check (list int))
    "drain returns the rest oldest-first"
    (List.init 98 (fun i -> i + 2))
    (Spsc.drain q);
  Alcotest.(check bool) "drained queue empty" true (Spsc.is_empty q);
  Alcotest.(check (option int)) "pop on empty" None (Spsc.pop q)

let test_spsc_cross_domain () =
  let n = 10_000 in
  let q = Spsc.create () in
  let producer =
    Domain.spawn (fun () ->
        for i = 0 to n - 1 do
          Spsc.push q i
        done)
  in
  (* Consume concurrently with production: order and completeness must
     hold while the producer is still pushing. *)
  let got = ref [] and count = ref 0 in
  while !count < n do
    match Spsc.pop q with
    | Some v ->
        got := v :: !got;
        incr count
    | None -> Domain.cpu_relax ()
  done;
  Domain.join producer;
  Alcotest.(check (list int))
    "every element arrives in FIFO order"
    (List.init n (fun i -> i))
    (List.rev !got);
  Alcotest.(check bool) "nothing left over" true (Spsc.is_empty q)

(* --- round barrier --------------------------------------------------- *)

let test_barrier_phases () =
  let parties = 4 and rounds = 200 in
  let b = Barrier.create parties in
  Alcotest.(check int) "parties" parties (Barrier.parties b);
  (* Plain (non-atomic) slots exchanged strictly across barrier phases:
     the barrier's fence is what makes the reads well-defined. *)
  let slots = Array.make parties 0 in
  let bad = Atomic.make 0 in
  let worker me () =
    for r = 0 to rounds - 1 do
      slots.(me) <- (r * parties) + me;
      Barrier.await b ~me;
      let expect = ref 0 and got = ref 0 in
      for d = 0 to parties - 1 do
        expect := !expect + (r * parties) + d;
        got := !got + slots.(d)
      done;
      if !got <> !expect then Atomic.incr bad;
      Barrier.await b ~me
    done
  in
  let ds = Array.init (parties - 1) (fun i -> Domain.spawn (worker (i + 1))) in
  worker 0 ();
  Array.iter Domain.join ds;
  Alcotest.(check int) "every phase saw every write" 0 (Atomic.get bad)

let test_barrier_single_party () =
  let b = Barrier.create 1 in
  (* Must not block. *)
  Barrier.await b ~me:0;
  Barrier.await b ~me:0;
  Alcotest.(check int) "parties" 1 (Barrier.parties b)

let test_barrier_rejects_zero () =
  Alcotest.check_raises "parties >= 1"
    (Invalid_argument "Barrier.create: parties must be >= 1") (fun () ->
      ignore (Barrier.create 0))

(* --- lookahead / horizon --------------------------------------------- *)

let test_lookahead_default_config () =
  let sys = System.boot ~nodes:2 ~classes:[] () in
  let m = System.machine sys in
  (* Default fabric: 12-byte bare header on a 1 GB/s link (12 ns
     transmission), 450 ns launch, 20 ns minimum single hop. No remote
     effect can land closer than this, so it is the round horizon. *)
  Alcotest.(check int) "lookahead = min remote latency" 950
    (Engine.lookahead_ns m)

let test_run_parallel_rejects_gossip () =
  let rt_config =
    { System.default_rt_config with Kernel.gossip_interval_ns = 1_000 }
  in
  let sys = System.boot ~rt_config ~nodes:2 ~classes:[] () in
  ignore (Services.Load.attach sys);
  Alcotest.check_raises "gossip has no per-domain decomposition"
    (Invalid_argument "Engine.run_parallel: engine-level timer scheduled")
    (fun () -> System.run_parallel sys ~domains:2)

(* --- rejected run_parallel is side-effect-free ----------------------- *)

(* Boot the sharded KV workload, let [trip] provoke (and swallow) a
   rejected [run_parallel], then finish the run on the sequential
   engine. If the rejected call touched any state — sharded the stats,
   drained the event queue into per-domain queues — the sequential run
   afterwards diverges from a clean twin that was never offered to the
   parallel engine. [setup] runs on both twins, before the spawn. *)
let run_seq_workload ?machine_config ~setup ~seed ~trip () =
  let kv = Kv.create ~shards:4 () in
  let sys = System.boot ?machine_config ~nodes:4 ~classes:(Kv.classes kv) () in
  let machine = System.machine sys in
  setup sys;
  Kv.spawn kv sys;
  let tl = Services.Timeline.attach sys in
  let _lg =
    Loadgen.launch_sharded
      {
        Loadgen.default_config with
        seed;
        rate_rps = 300_000;
        requests = 80;
        key_dist = Loadgen.Zipf 1.0;
      }
      sys kv
  in
  trip machine;
  System.run sys;
  let h = Services.Timeline.hash tl in
  Services.Timeline.detach tl;
  (h, Kv.completed kv, Engine.events_processed machine)

let check_rejection_side_effect_free ?machine_config ?(setup = ignore) ~seed
    ~trip () =
  let clean =
    run_seq_workload ?machine_config ~setup ~seed ~trip:(fun _ -> ()) ()
  in
  let tripped = run_seq_workload ?machine_config ~setup ~seed ~trip () in
  let h_clean, done_clean, ev_clean = clean in
  let h_tripped, done_tripped, ev_tripped = tripped in
  Alcotest.(check bool)
    "Timeline hash identical after a rejected run_parallel" true
    (h_clean = h_tripped);
  Alcotest.(check int) "same requests completed" done_clean done_tripped;
  Alcotest.(check int) "same events processed" ev_clean ev_tripped

(* Offer the machine to [run_parallel] and require the rejection whose
   message is [expect]. *)
let expect_rejection machine ~what ~expect =
  match Engine.run_parallel machine ~domains:2 () with
  | () -> Alcotest.failf "run_parallel accepted %s" what
  | exception Invalid_argument msg ->
      Alcotest.(check string) ("rejected for " ^ what) expect msg

let test_rejected_tie_break_side_effect_free () =
  check_rejection_side_effect_free ~seed:91
    ~trip:(fun machine ->
      Engine.set_tie_break machine (Some (fun _ -> 0));
      expect_rejection machine ~what:"a tie-break hook"
        ~expect:"Engine.run_parallel: tie-break hook set";
      Engine.set_tie_break machine None)
    ()

let faulted_config =
  {
    Engine.default_config with
    Engine.faults =
      Some (Network.Faults.plan ~seed:5 ~drop:0.02 ~duplicate:0.01 ());
  }

let test_rejected_fault_plan_side_effect_free () =
  check_rejection_side_effect_free ~machine_config:faulted_config ~seed:93
    ~trip:(fun machine ->
      expect_rejection machine ~what:"a fault plan"
        ~expect:"Engine.run_parallel: a fault plan needs the sequential engine")
    ()

(* A recovery manager needs a fault plan; the recovery guard is checked
   first, so this trip proves that guard on its own. No crash is
   scripted: the manager only checkpoints, on both twins. *)
let test_rejected_recovery_side_effect_free () =
  let app =
    {
      Manager.a_snapshot = (fun _ -> Some Bytes.empty);
      a_restore = (fun _ _ -> ());
      a_reset = ignore;
    }
  in
  check_rejection_side_effect_free ~machine_config:faulted_config
    ~setup:(fun sys ->
      ignore (Manager.attach (System.machine sys) ~app ~crashes:[] ()))
    ~seed:94
    ~trip:(fun machine ->
      expect_rejection machine ~what:"a recovery manager"
        ~expect:"Engine.run_parallel: recovery hooks need the sequential engine")
    ()

(* Periodic services arm engine-level timers whose rounds advance and
   sweep every node; no domain owns them, so a parallel run that
   executed them on one domain would change its Timeline hash with the
   domain count. *)
let test_rejected_dgc_side_effect_free () =
  check_rejection_side_effect_free
    ~setup:(fun sys -> ignore (Dgc.attach ~interval_ns:20_000 sys))
    ~seed:95
    ~trip:(fun machine ->
      expect_rejection machine ~what:"DGC sweep rounds"
        ~expect:"Engine.run_parallel: engine-level timer scheduled")
    ()

let test_rejected_migration_policy_side_effect_free () =
  let policy = Migrate.Policy.Affinity_pull { min_msgs = 4; max_moves = 4 } in
  check_rejection_side_effect_free
    ~setup:(fun sys -> ignore (Migrate.attach ~policy ~interval_ns:20_000 sys))
    ~seed:96
    ~trip:(fun machine ->
      expect_rejection machine ~what:"migration-policy rounds"
        ~expect:"Engine.run_parallel: engine-level timer scheduled")
    ()

(* A node-owned timer may not arm an engine-level one mid-run: the new
   timer would have no owning domain. *)
let test_schedule_at_inside_parallel_run () =
  let m = Engine.create ~nodes:2 () in
  Engine.schedule_on m ~node:1 ~time:1_000 (fun () ->
      Engine.schedule_at m ~time:2_000 ignore);
  Alcotest.check_raises "engine-level timer refused"
    (Invalid_argument
       "Engine.schedule_at: engine-level timer during a parallel run")
    (fun () -> Engine.run_parallel m ~domains:2 ())

let test_rejected_contention_side_effect_free () =
  let machine_config =
    {
      Engine.default_config with
      Engine.fabric = { Fabric.default_config with Fabric.contention = true };
    }
  in
  check_rejection_side_effect_free ~machine_config ~seed:92
    ~trip:(fun machine ->
      expect_rejection machine ~what:"a contention fabric"
        ~expect:
          "Engine.run_parallel: fabric contention needs the sequential engine")
    ()

(* --- structured lookahead violations --------------------------------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* Provoke a genuine violation: at a pathological bandwidth (sub-ns per
   byte, rounded up per packet) the transmission-time difference that
   staggers a batch's first frame collapses to zero while the lookahead
   still charges a full header, so the frame lands 1 ns inside the
   horizon. A single credit forces the batch to flush from a [Co_credit]
   event, whose time is the round minimum. *)
let test_lookahead_violation_structured () =
  let config =
    {
      Engine.default_config with
      Engine.fabric = { Fabric.default_config with Fabric.bytes_per_us = 100_000 };
      coalesce = Some { Coalesce.default_config with Coalesce.credits = 1 };
    }
  in
  let m = Engine.create ~config ~nodes:2 () in
  let h =
    Engine.register_handler m Machine.Am.Service ~name:"lv-sink"
      (fun _ _ _ -> ())
  in
  Engine.schedule_on m ~node:0 ~time:1_000 (fun () ->
      Engine.post m (Engine.node m 0) (fun () ->
          let src = Engine.node m 0 in
          for _ = 1 to 3 do
            Engine.send_am m ~src ~dst:1 ~handler:h ~size_bytes:4
              Machine.Am.Ping
          done));
  match Engine.run_parallel m ~domains:2 () with
  | () -> Alcotest.fail "pathological bandwidth did not violate the horizon"
  | exception Engine.Lookahead_violation { domain; node; arrival; horizon } ->
      Alcotest.(check int) "raised on the sending node's domain" 0 domain;
      Alcotest.(check int) "names the sending node" 0 node;
      Alcotest.(check bool) "arrival strictly inside the horizon" true
        (arrival < horizon);
      let rendered =
        Printexc.to_string
          (Engine.Lookahead_violation { domain; node; arrival; horizon })
      in
      Alcotest.(check bool) "printer renders the payload" true
        (contains rendered "Lookahead_violation"
        && contains rendered "domain = 0"
        && contains rendered "node = 0")

let test_lookahead_violation_sequential_ok () =
  (* The same configuration is legal on the sequential engine: the
     horizon is a parallel-envelope constraint, not a config error. *)
  let config =
    {
      Engine.default_config with
      Engine.fabric = { Fabric.default_config with Fabric.bytes_per_us = 100_000 };
      coalesce = Some { Coalesce.default_config with Coalesce.credits = 1 };
    }
  in
  let m = Engine.create ~config ~nodes:2 () in
  let got = ref 0 in
  let h =
    Engine.register_handler m Machine.Am.Service ~name:"lv-count"
      (fun _ _ _ -> incr got)
  in
  Engine.schedule_on m ~node:0 ~time:1_000 (fun () ->
      Engine.post m (Engine.node m 0) (fun () ->
          let src = Engine.node m 0 in
          for _ = 1 to 3 do
            Engine.send_am m ~src ~dst:1 ~handler:h ~size_bytes:4
              Machine.Am.Ping
          done));
  Engine.run m;
  Alcotest.(check int) "all three messages delivered" 3 !got

(* --- sharded stats and histogram merging ----------------------------- *)

let test_stats_shard_merge () =
  let st = Stats.create () in
  Stats.shard st 4;
  let c = Stats.counter st "parallel.test" in
  let ds =
    Array.init 3 (fun i ->
        Domain.spawn (fun () ->
            Simcore.Domain_ctx.set (i + 1);
            for _ = 1 to 10_000 do
              Stats.bump c
            done))
  in
  for _ = 1 to 10_000 do
    Stats.bump c
  done;
  Array.iter Domain.join ds;
  Alcotest.(check int) "read sums every domain slot" 40_000 (Stats.read c);
  Alcotest.(check int) "get sees the same total" 40_000
    (Stats.get st "parallel.test")

let test_histogram_merge () =
  let all = Histogram.create ~bucket_width:100 () in
  let parts = Array.init 3 (fun _ -> Histogram.create ~bucket_width:100 ()) in
  List.iteri
    (fun i v ->
      Histogram.observe all v;
      Histogram.observe parts.(i mod 3) v)
    [ 100; 2_000; 350; 4_200; 77; 900; 12_000; 512 ];
  let merged = Histogram.create ~bucket_width:100 () in
  Array.iter (fun p -> Histogram.merge_into ~into:merged p) parts;
  Alcotest.(check int) "count" (Histogram.count all) (Histogram.count merged);
  Alcotest.(check (option int)) "min" (Histogram.min all) (Histogram.min merged);
  Alcotest.(check (option int)) "max" (Histogram.max all) (Histogram.max merged);
  Alcotest.(check (option (float 1e-9)))
    "p99" (Histogram.quantile all 0.99)
    (Histogram.quantile merged 0.99)

(* --- per-node RNG streams -------------------------------------------- *)

let test_rng_derive_pure () =
  let parent = Rng.create ~seed:42 in
  let before = Rng.state parent in
  let a = Rng.derive parent ~index:3 in
  Alcotest.(check bool) "derive does not advance the parent" true
    (Rng.state parent = before);
  let b = Rng.derive parent ~index:3 in
  let draws r = List.init 16 (fun _ -> Rng.int r 1_000_000) in
  Alcotest.(check (list int)) "same index, same stream" (draws a) (draws b);
  let c = Rng.derive parent ~index:4 in
  Alcotest.(check bool) "different index, different stream" true
    (draws (Rng.derive parent ~index:3) <> draws c)

(* --- the determinism property ---------------------------------------- *)

(* One parallel run of the sharded open-loop workload with Loadgen seed
   [seed]; returns the Timeline hash and an order-insensitive fold of
   the merged KV metrics. *)
let run_sharded ~seed ~domains =
  let kv = Kv.create ~shards:4 () in
  let sys = System.boot ~nodes:4 ~classes:(Kv.classes kv) () in
  Kv.spawn kv sys;
  let tl = Services.Timeline.attach sys in
  let lg =
    Loadgen.launch_sharded
      {
        Loadgen.default_config with
        seed;
        rate_rps = 300_000;
        requests = 120;
        key_dist = Loadgen.Zipf 1.0;
      }
      sys kv
  in
  System.run_parallel sys ~domains;
  let h = Services.Timeline.hash tl in
  Services.Timeline.detach tl;
  let s = Kv.stats kv in
  let fold =
    ( Kv.completed kv,
      Kv.pending kv,
      s.Kv.get_ok + s.Kv.put_ok + s.Kv.cas_ok + s.Kv.cas_fail + s.Kv.mget_ok,
      Histogram.count s.Kv.latency,
      Histogram.quantile s.Kv.latency 0.99 )
  in
  let audit = Loadgen.audit lg sys in
  (h, fold, audit)

let prop_parallel_identical =
  QCheck.Test.make ~count:5
    ~name:"sharded open loop is bit-identical at 1/2/4 domains"
    QCheck.(int_range 1 5_000)
    (fun seed ->
      let h1, fold1, audit1 = run_sharded ~seed ~domains:1 in
      if audit1 <> [] then
        QCheck.Test.fail_reportf "seed %d: 1-domain audit unclean: %s" seed
          (String.concat "; " audit1);
      List.iter
        (fun domains ->
          let h, fold, audit = run_sharded ~seed ~domains in
          if h <> h1 then
            QCheck.Test.fail_reportf
              "seed %d: Timeline hash diverged at %d domains" seed domains;
          if fold <> fold1 then
            QCheck.Test.fail_reportf
              "seed %d: merged KV metrics diverged at %d domains" seed domains;
          if audit <> [] then
            QCheck.Test.fail_reportf "seed %d: %d-domain audit unclean: %s"
              seed domains
              (String.concat "; " audit))
        [ 2; 4 ];
      true)

(* Attaching an observer must not change what a parallel run computes:
   the engine buffers observations only for an attached observer, so
   the same workload runs once observed and once unobserved. *)
let test_observer_does_not_change_run () =
  let run ~observe =
    let kv = Kv.create ~shards:4 () in
    let sys = System.boot ~nodes:4 ~classes:(Kv.classes kv) () in
    Kv.spawn kv sys;
    let tl = if observe then Some (Services.Timeline.attach sys) else None in
    ignore
      (Loadgen.launch_sharded
         {
           Loadgen.default_config with
           seed = 11;
           rate_rps = 300_000;
           requests = 120;
           key_dist = Loadgen.Zipf 1.0;
         }
         sys kv);
    System.run_parallel sys ~domains:2;
    let observed =
      match tl with
      | Some tl ->
          let d = Services.Timeline.deliveries tl in
          Services.Timeline.detach tl;
          d
      | None -> 0
    in
    ( Kv.completed kv,
      Engine.events_processed (System.machine sys),
      Stats.to_alist (System.stats sys),
      observed )
  in
  let completed, events, stats, deliveries = run ~observe:true in
  let completed', events', stats', _ = run ~observe:false in
  Alcotest.(check bool) "the observer saw the run" true (deliveries > 0);
  Alcotest.(check int) "every request completed" 120 completed;
  Alcotest.(check int) "kv completions" completed completed';
  Alcotest.(check int) "events processed" events events';
  Alcotest.(check (list (pair string int))) "stats" stats stats'

let test_oversubscribed_domains_identical () =
  (* More domains than nodes must clamp/behave, and more domains than
     host cores must still terminate and agree (the barrier blocks
     rather than spins). *)
  let seed = 17 in
  let h1, fold1, _ = run_sharded ~seed ~domains:1 in
  let h8, fold8, audit8 = run_sharded ~seed ~domains:8 in
  Alcotest.(check bool) "hash identical at 8 domains" true (h1 = h8);
  Alcotest.(check bool) "metric fold identical at 8 domains" true
    (fold1 = fold8);
  Alcotest.(check (list string)) "audit clean at 8 domains" [] audit8

let () =
  Alcotest.run "parallel"
    [
      ( "mailbox",
        [
          Alcotest.test_case "FIFO push/pop/drain" `Quick test_spsc_fifo;
          Alcotest.test_case "cross-domain FIFO" `Quick test_spsc_cross_domain;
        ] );
      ( "barrier",
        [
          Alcotest.test_case "phase fence across domains" `Quick
            test_barrier_phases;
          Alcotest.test_case "single party is a no-op" `Quick
            test_barrier_single_party;
          Alcotest.test_case "rejects zero parties" `Quick
            test_barrier_rejects_zero;
        ] );
      ( "horizon",
        [
          Alcotest.test_case "lookahead from default fabric" `Quick
            test_lookahead_default_config;
          Alcotest.test_case "gossip rejected" `Quick
            test_run_parallel_rejects_gossip;
          Alcotest.test_case "violation is structured" `Quick
            test_lookahead_violation_structured;
          Alcotest.test_case "violating config legal sequentially" `Quick
            test_lookahead_violation_sequential_ok;
        ] );
      ( "guards",
        [
          Alcotest.test_case "rejected tie-break call leaves no trace" `Quick
            test_rejected_tie_break_side_effect_free;
          Alcotest.test_case "rejected contention call leaves no trace" `Quick
            test_rejected_contention_side_effect_free;
          Alcotest.test_case "rejected fault-plan call leaves no trace" `Quick
            test_rejected_fault_plan_side_effect_free;
          Alcotest.test_case "rejected recovery call leaves no trace" `Quick
            test_rejected_recovery_side_effect_free;
          Alcotest.test_case "rejected DGC call leaves no trace" `Quick
            test_rejected_dgc_side_effect_free;
          Alcotest.test_case "rejected migration-policy call leaves no trace"
            `Quick test_rejected_migration_policy_side_effect_free;
          Alcotest.test_case "schedule_at inside a parallel run" `Quick
            test_schedule_at_inside_parallel_run;
        ] );
      ( "merge",
        [
          Alcotest.test_case "stats shard merge" `Quick test_stats_shard_merge;
          Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
          Alcotest.test_case "rng derive purity" `Quick test_rng_derive_pure;
        ] );
      ( "determinism",
        [
          QCheck_alcotest.to_alcotest prop_parallel_identical;
          Alcotest.test_case "8 domains on a small host" `Quick
            test_oversubscribed_domains_identical;
          Alcotest.test_case "observer does not change the run" `Quick
            test_observer_does_not_change_run;
        ] );
    ]
