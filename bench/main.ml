(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 6), the ablations listed in DESIGN.md, and one
   gated section per runtime layer.

     dune exec bench/main.exe -- [sections] [flags]

   Sections, run in this order whatever order they are named in (default
   all):
     table1 table2 table3 table4 fig5 fig6 ablations   the paper
     faults       N-queens under drop/duplication, and a crash window
     migrate      hot-spot rebalancing and affinity
     dgc          churn steady-state memory, migrated-object reclamation
     coalesce     per-destination batching of bursty traffic
     recover      crash recovery: kill nodes mid-burst, restore, replay
     traffic      open-loop load against the sharded KV tier, rate sweep
     multiactive  serialized vs compatibility-annotated shards
     parallel     the domain-sharded engine against the sequential loop on
                  the fault-free sharded KV workload
     explore      the schedule explorer (a checker: only run when named,
                  never under "all")

   Flags:
     --full          paper scale (N=13, 512 nodes) for table4/fig5/fig6;
                     without it the harness caps at N<=11
     --smoke         CI scale for the layer sections and the explorer
     --baseline F    traffic: p99_ns may not exceed 1.5x F's; multiactive:
                     knee_multiactive_rps may not fall below F's; parallel:
                     the KV Timeline hash must equal F's
     explore only:   --schedules N  --seed N  --workload NAME  --out DIR
                     --replay FILE  (re-executes a reproducer twice and
                     asserts the runs are bit-identical)

   Each layer section writes BENCH_<section>.json and exits nonzero on
   any failed gate. An argument that is neither a section, "all" nor one
   of the flags above prints a usage line and exits with status 2. *)

open Core

let header title = Format.printf "@.=== %s ===@." title
let cost = Machine.Cost_model.default

(* Every gate fails the same way: one FAILED line, exit status 1. *)
let fail fmt =
  Format.kasprintf
    (fun s ->
      Format.printf "FAILED %s@." s;
      exit 1)
    fmt

(* Host-side perf triple for the section artifacts: each JSON-emitting
   section brackets itself with [section_start], feeds every system (or
   bare machine) it simulated to [note_events] / [note_machine_events],
   and [emit] appends the triple to its fields — so CI can trend
   simulator throughput uniformly across sections. Wall clock, not CPU
   time: the parallel section's whole point is wall-clock speedup. *)
let section_t0 = ref 0.
let section_events = ref 0

let section_start () =
  section_events := 0;
  section_t0 := Unix.gettimeofday ()

let note_machine_events m =
  section_events := !section_events + Machine.Engine.events_processed m

let note_events sys = note_machine_events (System.machine sys)

let emit ?(domains = 1) path fields =
  Services.Bench_json.write ~path
    (fields
    @ Services.Bench_json.perf_fields
        ~wall_clock_s:(Unix.gettimeofday () -. !section_t0)
        ~events:!section_events ~domains);
  Format.printf "metrics written to %s@." path

(* One layer's counters, read from the machine's single Stats registry:
   counters are named "<layer>.<event>", so a name prefix selects a
   layer. Zero counters are elided. *)
let print_counters stats prefix =
  let rows =
    List.filter
      (fun (k, v) -> v <> 0 && String.starts_with ~prefix k)
      (Simcore.Stats.to_alist stats)
  in
  Format.printf "@[<hov>%a@]@."
    (Format.pp_print_list ~pp_sep:Format.pp_print_space (fun ppf (k, v) ->
         Format.fprintf ppf "%s=%d" k v))
    rows

(* Record a run of the check workload [wl] at [seed], replay its
   choice vector, and require a bit-identical Timeline hash and, unless
   [allow_failing], a clean run. [show] prints record hash, replay hash
   and verdict. Returns the recorded hash. *)
let replay_gate ?(allow_failing = false) ~show (wl : Check.Workloads.t) ~seed =
  let module E = Check.Explore in
  let o = E.run_recorded wl ~seed in
  let rp = E.replay wl o.E.o_trace in
  let h = rp.E.rp_outcome.E.o_hash in
  let ok =
    rp.E.rp_identical
    && (Option.is_some o.E.o_crash || h = o.E.o_hash)
    && (allow_failing || not (E.failed o))
  in
  show o.E.o_hash h ok;
  if not ok then fail "%s replay gate" wl.Check.Workloads.w_name;
  o.E.o_hash

let determinism ?(label = "") recorded replayed ok =
  Format.printf "%sdeterminism: record %016x replay %016x %s@." label recorded
    replayed
    (if ok then "ok" else "MISMATCH")

let workload name = Option.get (Check.Workloads.find name)

(* Compare against the integer [key] of a checked-in baseline: [check]
   prints the comparison and says whether it passes. A missing key fails
   the gate. *)
let baseline_gate ~path ~key ~what check =
  match Services.Bench_json.read_int_field ~path ~key with
  | None -> fail "baseline %s has no %s" path key
  | Some want -> if not (check want) then fail "%s gate" what

(* ------------------------------------------------------------------ *)
(* Table 1: costs of basic operations                                  *)
(* ------------------------------------------------------------------ *)

let table1 () =
  header "Table 1: Costs of basic operations (us)";
  let m = Apps.Microbench.measure () in
  let row name measured paper =
    Format.printf "%-34s %8.2f   (paper: %4.1f)@." name (measured /. 1000.)
      paper
  in
  row "Intra-node Message (to Dormant)" m.Apps.Microbench.intra_dormant_ns 2.3;
  row "Intra-node Message (to Active)" m.intra_active_ns 9.6;
  row "Intra-node Creation" m.intra_create_ns 2.1;
  row "Latency of Inter-node Message" m.inter_latency_ns 8.9

(* ------------------------------------------------------------------ *)
(* Table 2: breakdown of an intra-node message to a dormant object     *)
(* ------------------------------------------------------------------ *)

let table2 () =
  header "Table 2: Breakdown of intra-node message to dormant object";
  let row name instr = Format.printf "%-34s %4d instructions@." name instr in
  row "Check Locality" cost.check_locality;
  row "Lookup and Call" cost.vft_lookup_call;
  row "Switch VFTP to Active Mode" cost.switch_vft;
  row "Execution of Method Body" 0;
  row "Check Message Queue" cost.check_message_queue;
  row "Switch VFTP to Dormant Mode" cost.switch_vft;
  row "Polling of Remote Message" cost.poll_remote;
  row "Adjusting Stack Pointer and Return" cost.stack_adjust_return;
  let total = Machine.Cost_model.dormant_send_instructions cost in
  Format.printf "%-34s %4d instructions (paper: 25)@." "Total" total;
  let m = Apps.Microbench.measure () in
  Format.printf
    "measured: %.0f ns = %.1f instructions at %d ns/instr (paper: 2.3 us)@."
    m.Apps.Microbench.intra_dormant_ns
    (m.intra_dormant_ns /. float_of_int cost.ns_per_instr)
    cost.ns_per_instr;
  Format.printf
    "inlined best case (Section 8.2 + Section 6.1 optimisations): %.0f ns@."
    m.inlined_send_ns

(* ------------------------------------------------------------------ *)
(* Table 3: send/reply latency comparison                              *)
(* ------------------------------------------------------------------ *)

let table3 () =
  header "Table 3: Comparison of send/reply latency";
  let m = Apps.Microbench.measure () in
  let ours_us = m.Apps.Microbench.now_roundtrip_remote_ns /. 1000. in
  let sum2 = 2. *. m.inter_latency_ns /. 1000. in
  let row name instr us cycles mhz =
    Format.printf "%-24s %5d instr %8.1f us %6d cycles @@ %4.1f MHz@." name
      instr us cycles mhz
  in
  Format.printf
    "%-24s %5.0f instr %8.1f us %6.0f cycles @@ %4.1f MHz  (measured now-type rtt)@."
    "this reproduction"
    (ours_us *. 1000. /. float_of_int cost.ns_per_instr)
    ours_us (ours_us *. 25.) 25.;
  Format.printf "%-24s %11s %14.1f us  (2 x one-way, the paper's accounting)@."
    "this reproduction" "" sum2;
  row "ABCL/onAP1000 [paper]" 160 17.8 450 25.;
  row "ABCL/onEM-4 [14]" 100 9.0 110 12.5;
  row "CST (J-Machine) [5]" 110 4.0 220 50.

(* ------------------------------------------------------------------ *)
(* Table 4: the scale of the N-queen program                           *)
(* ------------------------------------------------------------------ *)

let table4 ~full () =
  header "Table 4: Scale of the N-queen program";
  let cases = if full then [ (8, 64); (13, 512) ] else [ (8, 64); (11, 256) ] in
  Format.printf "%4s %12s %12s %12s %12s %14s@." "N" "#solutions" "#creations"
    "#messages" "memory(KB)" "seq elapsed";
  List.iter
    (fun (n, p) ->
      let seq = Apps.Nqueens_seq.solve ~n in
      let seq_t = Apps.Nqueens_seq.modeled_time cost seq in
      let r = Apps.Nqueens_par.run ~nodes:p ~n () in
      Format.printf "%4d %12d %12d %12d %12d %11.0f ms@." n
        r.Apps.Nqueens_par.solutions r.objects_created r.messages
        (r.heap_words * 4 / 1024)
        (Simcore.Time.to_ms seq_t))
    cases;
  Format.printf
    "paper: N=8  ->     92 solutions,   2,056 creations,   4,104 messages, 130 KB, 84 ms@.";
  Format.printf
    "paper: N=13 -> 73,712 solutions, ~4.64 M creations, ~9.35 M messages, 549 MB, 462 s@."

(* ------------------------------------------------------------------ *)
(* Figure 5: speedup of the N-queen program                            *)
(* ------------------------------------------------------------------ *)

let fig5_series ~n ~procs =
  let seq = Apps.Nqueens_seq.solve ~n in
  let seq_t = Apps.Nqueens_seq.modeled_time cost seq in
  List.map
    (fun p ->
      let r = Apps.Nqueens_par.run ~nodes:p ~n () in
      ( p,
        Simcore.Time.to_ms r.Apps.Nqueens_par.elapsed,
        float_of_int seq_t /. float_of_int r.elapsed,
        r.utilization ))
    procs

let fig5 ~full () =
  header "Figure 5: Speedup for N-queen problem";
  let print_series ~n series =
    Format.printf "N = %d:@." n;
    Format.printf "  %6s %12s %10s %12s@." "#proc" "elapsed(ms)" "speedup"
      "utilization";
    List.iter
      (fun (p, ms, speedup, util) ->
        Format.printf "  %6d %12.2f %10.1f %11.0f%%@." p ms speedup
          (100. *. util))
      series
  in
  print_series ~n:8 (fig5_series ~n:8 ~procs:[ 1; 2; 4; 8; 16; 32; 64 ]);
  if full then
    print_series ~n:13 (fig5_series ~n:13 ~procs:[ 64; 128; 256; 512 ])
  else print_series ~n:11 (fig5_series ~n:11 ~procs:[ 1; 4; 16; 64; 256 ]);
  Format.printf
    "paper: N=8 -> ~20x at 64 procs; N=13 -> ~440x at 512 procs (85%% util)@."

(* ------------------------------------------------------------------ *)
(* Figure 6: effect of stack-based scheduling                          *)
(* ------------------------------------------------------------------ *)

let fig6 ~full () =
  header "Figure 6: Stack-based vs naive scheduling (N-queens, 64 nodes)";
  let ns = if full then [ 9; 10; 11; 12 ] else [ 9; 10; 11 ] in
  let series name placement =
    Format.printf "placement: %s@." name;
    Format.printf "%4s %14s %18s %10s %22s@." "N" "naive (ms)"
      "stack-based (ms)" "speedup" "local msgs to dormant";
    List.iter
      (fun n ->
        let base = { System.default_rt_config with Kernel.placement } in
        let stack = Apps.Nqueens_par.run ~rt_config:base ~nodes:64 ~n () in
        let naive =
          Apps.Nqueens_par.run
            ~rt_config:{ base with Kernel.sched_kind = Kernel.Naive }
            ~nodes:64 ~n ()
        in
        Format.printf "%4d %14.2f %18.2f %9.1f%% %20.0f%%@." n
          (Simcore.Time.to_ms naive.Apps.Nqueens_par.elapsed)
          (Simcore.Time.to_ms stack.Apps.Nqueens_par.elapsed)
          (100.
          *. (float_of_int (naive.Apps.Nqueens_par.elapsed - stack.elapsed)
             /. float_of_int stack.elapsed))
          (100. *. stack.local_dormant_fraction))
      ns
  in
  (* Global round robin minimises locality; the neighbour policy — a
     "local information" placement like the paper's — reproduces the
     paper's ~30% benefit of stack-based scheduling. *)
  series "round-robin (locality ~1/64)" Kernel.Round_robin;
  series "neighbor round-robin (locality ~1/5)" Kernel.Neighbor_round_robin;
  Format.printf
    "paper: ~30%% speedup; ~75%% of local messages go to dormant objects@."

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md section 5)                                     *)
(* ------------------------------------------------------------------ *)

let ablations () =
  header "Ablation: polling vs interrupt delivery (ring latency)";
  let latency config =
    let r = Apps.Ring.run ~machine_config:config ~nodes:16 ~laps:64 () in
    r.Apps.Ring.ns_per_hop /. 1000.
  in
  let polling = Machine.Engine.default_config in
  let interrupt =
    { polling with Machine.Engine.delivery = Machine.Engine.Interrupt }
  in
  Format.printf "polling:   %.2f us/hop@." (latency polling);
  Format.printf "interrupt: %.2f us/hop@." (latency interrupt);

  header "Ablation: chunk stock size (N-queens, N=10, 64 nodes)";
  Format.printf "%6s %12s %10s %12s@." "stock" "elapsed(ms)" "stalls" "refills";
  List.iter
    (fun stock ->
      let rt_config =
        { System.default_rt_config with Kernel.stock_size = stock }
      in
      let cls = Apps.Nqueens_par.solver_cls () in
      let sys = System.boot ~rt_config ~nodes:64 ~classes:[ cls ] () in
      let root =
        System.create_root sys ~node:0 cls
          [ Value.int 10; Value.int Apps.Queens_board.empty_packed; Value.unit ]
      in
      System.send_boot sys root (Pattern.intern "expand" ~arity:0) [];
      System.run sys;
      let st = System.stats sys in
      Format.printf "%6d %12.2f %10d %12d@." stock
        (Simcore.Time.to_ms (System.elapsed sys))
        (Simcore.Stats.get st "chunk.stall")
        (Simcore.Stats.get st "chunk.refill"))
    [ 1; 2; 4; 8 ];

  header "Ablation: link contention (N-queens, N=10, 64 nodes)";
  let run_contention contention =
    let machine_config =
      {
        Machine.Engine.default_config with
        Machine.Engine.fabric =
          { Network.Fabric.default_config with Network.Fabric.contention };
      }
    in
    Apps.Nqueens_par.run ~machine_config ~nodes:64 ~n:10 ()
  in
  let free = run_contention false and busy = run_contention true in
  Format.printf
    "contention-free: %.2f ms, with per-link contention: %.2f ms (%+.1f%%)@."
    (Simcore.Time.to_ms free.Apps.Nqueens_par.elapsed)
    (Simcore.Time.to_ms busy.Apps.Nqueens_par.elapsed)
    (100.
    *. float_of_int (busy.Apps.Nqueens_par.elapsed - free.elapsed)
    /. float_of_int free.elapsed);

  header "Ablation: inlined vs generic dormant send";
  let m = Apps.Microbench.measure () in
  Format.printf "generic: %.0f ns, inlined: %.0f ns, fully optimised: %.0f ns@."
    m.Apps.Microbench.intra_dormant_ns m.inlined_send_ns m.lean_send_ns;

  header
    "Ablation: placement locality vs scheduling benefit (N-queens, N=10, 64 nodes)";
  (* The stack-based fast path only applies to local messages, so the
     naive-scheduler gap grows with placement locality: global round
     robin keeps ~1/64 of messages local, neighbour round robin ~1/5,
     self-placement all of them. *)
  Format.printf "%-14s %12s %12s %10s %12s@." "placement" "stack(ms)"
    "naive(ms)" "gain" "local msgs";
  List.iter
    (fun (name, placement) ->
      let base = { System.default_rt_config with Kernel.placement } in
      let stack = Apps.Nqueens_par.run ~rt_config:base ~nodes:64 ~n:10 () in
      let naive =
        Apps.Nqueens_par.run
          ~rt_config:{ base with Kernel.sched_kind = Kernel.Naive }
          ~nodes:64 ~n:10 ()
      in
      let st = stack.Apps.Nqueens_par.elapsed in
      let nv = naive.Apps.Nqueens_par.elapsed in
      Format.printf "%-14s %12.2f %12.2f %9.1f%% %11.0f%%@." name
        (Simcore.Time.to_ms st) (Simcore.Time.to_ms nv)
        (100. *. float_of_int (nv - st) /. float_of_int st)
        (100. *. stack.local_fraction))
    [
      ("round-robin", Kernel.Round_robin);
      ("neighbor", Kernel.Neighbor_round_robin);
      ("self", Kernel.Self_node);
    ]

(* ------------------------------------------------------------------ *)
(* Degradation: fault injection + reliable delivery                    *)
(* ------------------------------------------------------------------ *)

let fault_config plan =
  {
    Machine.Engine.default_config with
    Machine.Engine.faults = (if Network.Faults.is_fault_free plan then None else Some plan);
  }

let faults ~smoke () =
  header "Degradation: N-queens (N=8, 16 nodes) under fault injection";
  section_start ();
  let nodes = 16 and n = 8 in
  let run_plan plan =
    let r, sys =
      Apps.Nqueens_par.run_sys ~machine_config:(fault_config plan) ~nodes ~n ()
    in
    note_events sys;
    (r, sys)
  in
  let rates = if smoke then [ 0.0; 0.05 ] else [ 0.0; 0.01; 0.02; 0.05; 0.10 ] in
  let base = ref 0 in
  (* Headline numbers at the worst drop rate, for the metrics file. *)
  let j_slowdown = ref 1.0
  and j_drops = ref 0
  and j_dups = ref 0
  and j_rexmit = ref 0
  and j_acks = ref 0
  and j_clean = ref true in
  Format.printf "%6s %10s %12s %9s %8s %6s %8s %6s %8s %6s@." "drop"
    "solutions" "elapsed(ms)" "slowdown" "dropped" "dup" "rexmit" "dupdis"
    "acks" "clean";
  List.iter
    (fun rate ->
      let plan =
        Network.Faults.plan ~seed:42 ~drop:rate ~duplicate:(rate /. 2.)
          ~jitter_ns:2_000 ()
      in
      let r, sys = run_plan plan in
      if rate = 0.0 then base := r.Apps.Nqueens_par.elapsed;
      let clean = Diagnostics.is_clean (Diagnostics.survey sys) in
      let m = System.machine sys and get = Simcore.Stats.get (System.stats sys) in
      let drops = Machine.Engine.packets_dropped m
      and dups = Machine.Engine.packets_duplicated m
      and rexmit = get "reliable.retransmit"
      and dupdis = get "reliable.dup_discard"
      and acks = get "reliable.ack" in
      Format.printf "%5.0f%% %10d %12.2f %8.2fx %8d %6d %8d %6d %8d %6s@."
        (100. *. rate) r.Apps.Nqueens_par.solutions
        (Simcore.Time.to_ms r.elapsed)
        (float_of_int r.elapsed /. float_of_int !base)
        drops dups rexmit dupdis acks
        (if clean then "yes" else "NO");
      j_slowdown := float_of_int r.elapsed /. float_of_int !base;
      j_drops := drops;
      j_dups := dups;
      j_rexmit := rexmit;
      j_acks := acks;
      j_clean := !j_clean && clean;
      if not clean then begin
        Format.printf "  diagnostics:@.";
        Format.printf "  %a@." Diagnostics.pp (Diagnostics.survey sys)
      end)
    rates;

  header "Crash/recover: node 3 NIC down for 2 ms mid-run (plus 1% drop)";
  let plan =
    Network.Faults.plan ~seed:7 ~drop:0.01
      ~crashes:
        [ { Network.Faults.node = 3; from_ns = 100_000; until_ns = 2_100_000 } ]
      ()
  in
  let r, sys = run_plan plan in
  let clean = Diagnostics.is_clean (Diagnostics.survey sys) in
  Format.printf
    "solutions %d (expect 92), elapsed %.2f ms, quiescence %s@."
    r.Apps.Nqueens_par.solutions
    (Simcore.Time.to_ms r.elapsed)
    (if clean then "clean" else "DIRTY");
  let m = System.machine sys in
  Format.printf "faults: %d dropped (%d by the crash window), %d duplicated@."
    (Machine.Engine.packets_dropped m)
    (Machine.Engine.crash_dropped m)
    (Machine.Engine.packets_duplicated m);
  print_counters (System.stats sys) "reliable.";
  Format.printf
    "chunk-stall wait while partitioned: %d ns total@."
    (Simcore.Stats.get (System.stats sys) "chunk.stall.wait_ns");
  emit "BENCH_faults.json"
    Services.Bench_json.
      [
         ("smoke", Bool smoke);
         ("drop_max_pct", Float (100. *. List.fold_left Float.max 0. rates));
         ("slowdown_at_max_drop", Float !j_slowdown);
         ("drops", Int !j_drops);
         ("dups", Int !j_dups);
         ("retransmits", Int !j_rexmit);
         ("acks", Int !j_acks);
         ("clean", Bool !j_clean);
         ("crash_solutions", Int r.Apps.Nqueens_par.solutions);
         ("crash_elapsed_ns", Int r.Apps.Nqueens_par.elapsed);
         ("crash_clean", Bool clean);
       ]

(* ------------------------------------------------------------------ *)
(* Migration: hot-spot rebalancing and affinity                        *)
(* ------------------------------------------------------------------ *)

(* Root solutions after a migration run: the root itself may have moved,
   so scan every node for its non-stub record. *)
let migrated_root_solutions sys ~nodes root =
  let rec scan node =
    if node >= nodes then -1
    else
      let rt = System.rt sys node in
      let found =
        Hashtbl.fold
          (fun _ (o : Kernel.obj) acc ->
            match acc with
            | Some _ -> acc
            | None ->
                if
                  o.Kernel.self = root
                  &&
                  match o.Kernel.vftp.Kernel.vft_kind with
                  | Kernel.Vft_forward _ -> false
                  | _ -> true
                then Some o
                else None)
          rt.Kernel.objects None
      in
      match found with
      | Some o -> Value.to_int o.Kernel.state.(4)
      | None -> scan (node + 1)
  in
  scan 0

let migrate_queens ?policy ?(gossip_ns = 0) ~rt_config ~nodes ~n () =
  let cls = Apps.Nqueens_par.solver_cls () in
  let rt_config =
    { rt_config with Kernel.gossip_interval_ns = gossip_ns }
  in
  let sys = System.boot ~rt_config ~nodes ~classes:[ cls ] () in
  let m =
    match policy with
    | None -> None
    | Some policy ->
        let load = Services.Load.attach sys in
        Some (Migrate.attach ~policy ~interval_ns:100_000 ~load sys)
  in
  let root =
    System.create_root sys ~node:0 cls
      [ Value.int n; Value.int Apps.Queens_board.empty_packed; Value.unit ]
  in
  System.send_boot sys root (Pattern.intern "expand" ~arity:0) [];
  System.run sys;
  (sys, m, migrated_root_solutions sys ~nodes root)

let migrate_bench ~smoke () =
  header "Migration: hot-spot rebalancing (N-queens, all work born on node 0)";
  section_start ();
  let nodes = 16 in
  let n = if smoke then 7 else 8 in
  let expected = [| 1; 1; 0; 0; 2; 10; 4; 40; 92 |].(n) in
  (* Self-placement under the naive scheduler concentrates the whole
     solver tree on node 0 and makes queued work visible as load — the
     worst case a load policy must dig itself out of. *)
  let skewed =
    {
      System.default_rt_config with
      Kernel.placement = Kernel.Self_node;
      sched_kind = Kernel.Naive;
    }
  in
  let balanced = { skewed with Kernel.placement = Kernel.Round_robin } in
  Format.printf "%-28s %12s %8s %7s %9s %6s %6s %10s@." "configuration"
    "elapsed(ms)" "speedup" "moves" "forwarded" "chain" "sol" "ok";
  let baseline = ref 0 in
  let row name ?policy ?gossip_ns rt_config =
    let sys, m, solutions =
      migrate_queens ?policy ?gossip_ns ~rt_config ~nodes ~n ()
    in
    note_events sys;
    let elapsed = System.elapsed sys in
    if !baseline = 0 then baseline := elapsed;
    let speedup = float_of_int !baseline /. float_of_int elapsed in
    let moves, fwd, chain, conserved =
      match m with
      | None -> (0, 0, 0, true)
      | Some m ->
          ( Migrate.migrations m,
            Migrate.forwarded m,
            Migrate.max_stub_chain m,
            Migrate.residual m = (0, 0) )
    in
    let ok =
      solutions = expected && conserved
      && Diagnostics.is_clean (Diagnostics.survey sys)
    in
    Format.printf "%-28s %12.2f %7.2fx %7d %9d %6d %6d %10s@." name
      (Simcore.Time.to_ms elapsed) speedup moves fwd chain solutions
      (if ok then "yes" else "NO");
    (speedup, chain)
  in
  let _ = row "skewed, no migration" skewed in
  let speedup, chain =
    row "skewed + load-threshold"
      ~policy:
        (Migrate.Policy.Load_threshold
           { factor = 6.0; min_queue = 1; max_moves = 8 })
      ~gossip_ns:100_000 skewed
  in
  let _ =
    row "skewed + affinity-pull"
      ~policy:(Migrate.Policy.Affinity_pull { min_msgs = 4; max_moves = 4 })
      ~gossip_ns:100_000 skewed
  in
  let _ = row "balanced placement (ref)" balanced in
  Format.printf
    "load-threshold speedup %.2fx over the skewed baseline (gate: >= 2x), steady-state chain %d (gate: <= 1)@."
    speedup chain;
  if speedup < 2.0 || chain > 1 then fail "hot-spot gate";

  header "Migration: affinity payoff (8 ping-pong pairs, 16 nodes)";
  (* Eight latency-bound request/reply pairs, each split across the
     torus. A worker's messages all come from its partner's node, so
     the affinity policy co-locates every pair (the partner stays put:
     co-located traffic reads as self-sent, never a majority from a
     remote node); the remaining rounds run at intra-node cost instead
     of crossing the fabric. Pulling correspondents together only pays
     while the pair is latency-bound — co-locating onto a saturated
     node would trade fabric latency for compute contention. *)
  let rounds = if smoke then 64 else 256 in
  let p_ping = Pattern.intern "ping" ~arity:1 in
  let p_pong = Pattern.intern "pong" ~arity:0 in
  let hub_cls =
    Class_def.define ~name:"hub" ~state:[||]
      ~init:(fun _ -> [||])
      ~methods:
        [
          ( p_ping,
            fun ctx msg ->
              Ctx.send ctx (Value.to_addr (Message.arg msg 0)) p_pong [] );
        ]
      ()
  in
  let worker_cls =
    Class_def.define ~name:"spoke" ~state:[| "hub"; "left" |]
      ~init:(fun args ->
        match args with
        | [ hub; left ] -> [| hub; left |]
        | _ -> invalid_arg "spoke")
      ~methods:
        [
          ( p_pong,
            fun ctx _ ->
              let left = Value.to_int (Ctx.get ctx 1) in
              if left > 0 then begin
                Ctx.set ctx 1 (Value.int (left - 1));
                Ctx.send ctx
                  (Value.to_addr (Ctx.get ctx 0))
                  p_ping
                  [ Value.addr (Ctx.self ctx) ]
              end );
        ]
      ()
  in
  let hub_row name ~policy =
    let sys =
      System.boot ~nodes ~classes:[ hub_cls; worker_cls ] ()
    in
    let m =
      Option.map (fun policy -> Migrate.attach ~policy ~interval_ns:100_000 sys)
        policy
    in
    for i = 0 to (nodes / 2) - 1 do
      let hub = System.create_root sys ~node:i hub_cls [] in
      let w =
        System.create_root sys ~node:(i + (nodes / 2)) worker_cls
          [ Value.addr hub; Value.int rounds ]
      in
      System.send_boot sys w p_pong []
    done;
    System.run sys;
    note_events sys;
    let moves, colocated =
      match m with
      | None -> (0, 0)
      | Some m -> (Migrate.migrations m, Migrate.colocated_sends m)
    in
    Format.printf "%-28s %9.2f ms %6d moves %9d colocated sends@." name
      (Simcore.Time.to_ms (System.elapsed sys))
      moves colocated;
    System.elapsed sys
  in
  let base = hub_row "pairs, no migration" ~policy:None in
  let aff =
    hub_row "pairs + affinity-pull"
      ~policy:
        (Some (Migrate.Policy.Affinity_pull { min_msgs = 4; max_moves = 4 }))
  in
  Format.printf "affinity cut elapsed by %.1f%%@."
    (100. *. float_of_int (base - aff) /. float_of_int base);
  emit "BENCH_migrate.json"
    (Services.Bench_json.
       [
         ("smoke", Bool smoke);
         ("hotspot_speedup", Float speedup);
         ("steady_chain", Int chain);
         ("affinity_base_ns", Int base);
         ("affinity_pull_ns", Int aff);
         ( "affinity_improvement_pct",
           Float (100. *. float_of_int (base - aff) /. float_of_int base) );
       ])

(* ------------------------------------------------------------------ *)
(* Distributed GC: churn steady state and migrated-object reclamation  *)
(* ------------------------------------------------------------------ *)

let dgc_total_records sys =
  let n = System.node_count sys in
  let total = ref 0 in
  for node = 0 to n - 1 do
    total := !total + Hashtbl.length (System.rt sys node).Kernel.objects
  done;
  !total

let dgc_bench ~smoke () =
  header "Distributed GC: churn steady-state memory";
  section_start ();
  let nodes = if smoke then 4 else 16 in
  let per_node = if smoke then 80 else 640 in
  let keep = 4 in
  let p_cycle = Pattern.intern "dgcb_cycle" ~arity:0 in
  let p_poke = Pattern.intern "dgcb_poke" ~arity:1 in
  let p_spawn = Pattern.intern "dgcb_spawn" ~arity:1 in
  let p_drop = Pattern.intern "dgcb_drop" ~arity:0 in
  let cell_cls =
    Class_def.define ~name:"dgcb_cell" ~state:[| "v" |]
      ~init:(fun _ -> [| Value.int 0 |])
      ~methods:[ (p_poke, fun ctx msg -> Ctx.set ctx 0 (Message.arg msg 0)) ]
      ()
  in
  (* Each cycle creates a cell on another node, pokes it, and keeps only
     the [keep] newest references: one create + one drop per cycle, a
     constant live set, and linear garbage for the collector to chase. *)
  let churn_cls =
    Class_def.define ~name:"dgcb_churner" ~state:[| "refs"; "i" |]
      ~init:(fun _ -> [| Value.List []; Value.int 0 |])
      ~methods:
        [
          ( p_cycle,
            fun ctx _ ->
              let i = Value.to_int (Ctx.get ctx 1) in
              if i < per_node then begin
                let p = Ctx.node_count ctx in
                let target = (Ctx.node_id ctx + 1 + (i mod (p - 1))) mod p in
                let a = Ctx.create_on ctx ~target cell_cls [] in
                Ctx.send ctx a p_poke [ Value.int i ];
                let refs =
                  match Ctx.get ctx 0 with Value.List l -> l | _ -> []
                in
                let kept = List.filteri (fun j _ -> j < keep - 1) refs in
                Ctx.set ctx 0 (Value.List (Value.Addr a :: kept));
                Ctx.set ctx 1 (Value.int (i + 1));
                Ctx.send ctx (Ctx.self ctx) p_cycle []
              end );
          ( p_spawn,
            fun ctx msg ->
              let target = Value.to_int (Message.arg msg 0) in
              let a = Ctx.create_on ctx ~target cell_cls [] in
              Ctx.send ctx a p_poke [ Value.int 1 ];
              let refs =
                match Ctx.get ctx 0 with Value.List l -> l | _ -> []
              in
              Ctx.set ctx 0 (Value.List (Value.Addr a :: refs)) );
          (p_drop, fun ctx _ -> Ctx.set ctx 0 (Value.List []));
        ]
      ()
  in
  let boot_churn ~with_gc =
    let sys = System.boot ~nodes ~classes:[ cell_cls; churn_cls ] () in
    let g =
      if with_gc then Some (Dgc.attach ~interval_ns:200_000 sys) else None
    in
    for node = 0 to nodes - 1 do
      let d = System.create_root sys ~node churn_cls [] in
      System.send_boot sys d p_cycle []
    done;
    (sys, g)
  in
  let cycles = nodes * per_node in
  let live = nodes * (1 + keep) in

  (* Recycling on: the collector rides a periodic timer during the run,
     then settles the reclamation cascade. *)
  let sys, g = boot_churn ~with_gc:true in
  let g = Option.get g in
  System.run sys;
  Dgc.settle g;
  note_events sys;
  let resident = dgc_total_records sys in
  let recycled =
    Simcore.Stats.get (System.stats sys) "slot.recycled"
  in
  Format.printf
    "with dgc:    %6d create/drop cycles, live set %4d -> resident %6d \
     record(s); %d reclaimed, %d restocked, %d slot(s) recycled@."
    cycles live resident (Dgc.reclaimed g) (Dgc.restocked g) recycled;
  print_counters (System.stats sys) "dgc.";

  (* Recycling off: same workload, collector never attached — memory
     can only grow. Probe events at fractions of the managed run's
     elapsed time sample the growth curve to show it is monotone. *)
  let t_end = System.elapsed sys in
  let sys_off, _ = boot_churn ~with_gc:false in
  let samples = ref [] in
  let machine_off = System.machine sys_off in
  for k = 1 to 8 do
    Machine.Engine.schedule_at machine_off ~time:(k * t_end / 8) (fun () ->
        samples := dgc_total_records sys_off :: !samples)
  done;
  System.run sys_off;
  note_events sys_off;
  samples := dgc_total_records sys_off :: !samples;
  let samples = List.rev !samples in
  let monotonic =
    fst
      (List.fold_left
         (fun (ok, prev) s -> (ok && s >= prev, s))
         (true, 0) samples)
  in
  let resident_off = List.fold_left max 0 samples in
  Format.printf
    "without dgc: %6d create/drop cycles, live set %4d -> resident %6d \
     record(s), growth monotone: %b@."
    cycles live resident_off monotonic;
  Format.printf
    "steady-state gate: resident %d <= 2x live %d; unmanaged growth %d >= \
     cycles %d@."
    resident (2 * live) resident_off cycles;
  if resident > 2 * live then fail "steady-state memory gate";
  if (not monotonic) || resident_off < cycles then
    fail "unmanaged-growth control gate";
  if recycled = 0 || Dgc.restocked g = 0 then fail "slot-recycling gate";

  header "Distributed GC: migrated-then-dropped reclamation";
  let cells = if smoke then 12 else 48 in
  let sys = System.boot ~nodes ~classes:[ cell_cls; churn_cls ] () in
  let m = Migrate.attach sys in
  let g = Dgc.attach ~migrate:m sys in
  let h = System.create_root sys ~node:0 churn_cls [] in
  for i = 1 to cells do
    System.send_boot sys h p_spawn [ Value.int (i mod nodes) ];
    System.run sys
  done;
  (* scatter every cell away from its birth node, then drop the lot *)
  let refs =
    match (Option.get (System.lookup_obj sys h)).Kernel.state.(0) with
    | Value.List vs ->
        List.filter_map (function Value.Addr a -> Some a | _ -> None) vs
    | _ -> []
  in
  let moved = ref 0 in
  List.iteri
    (fun i a ->
      if Migrate.move m ~canon:a ~to_:((a.Value.node + 3 + i) mod nodes) then
        incr moved;
      System.run sys)
    refs;
  System.send_boot sys h p_drop [];
  System.run sys;
  Dgc.settle g;
  note_events sys;
  let stubs_left = ref 0 in
  for node = 0 to nodes - 1 do
    stubs_left := !stubs_left + Migrate.stub_count m ~node
  done;
  let stubs_in_survey =
    List.fold_left ( + ) 0
      (List.map snd (Diagnostics.survey sys).Diagnostics.forwarding_stubs)
  in
  Format.printf
    "%d cell(s) spawned, %d migrated, then dropped: %d recall(s), %d \
     unstub(s), %d forwarding stub(s) left (diagnostics sees %d)@."
    cells !moved (Dgc.recalls g) (Dgc.unstubs g) !stubs_left stubs_in_survey;
  if !stubs_left <> 0 || stubs_in_survey <> 0 then
    fail "forwarding-stub reclamation gate";
  if !moved = 0 || Dgc.unstubs g = 0 then
    fail "migration coverage gate (workload too tame)";
  (match Dgc.audit g with
  | [] -> Format.printf "weight audit: balanced@."
  | problems ->
      List.iter (fun p -> Format.printf "audit: %s@." p) problems;
      fail "weight-conservation audit");
  emit "BENCH_dgc.json"
    (Services.Bench_json.
       [
         ("smoke", Bool smoke);
         ("cycles", Int cycles);
         ("live_set", Int live);
         ("resident_with_dgc", Int resident);
         ("resident_without_dgc", Int resident_off);
         ("slots_recycled", Int recycled);
         ("cells_migrated", Int !moved);
         ("recalls", Int (Dgc.recalls g));
         ("unstubs", Int (Dgc.unstubs g));
       ])

(* ------------------------------------------------------------------ *)
(* Aggregation: per-destination batching of bursty traffic             *)
(* ------------------------------------------------------------------ *)

type Machine.Am.payload += B_stamp of int

(* Bursty sender: each round, a few nodes enqueue a back-to-back burst
   of small messages to a few destinations — the pattern of the
   runtime's control services (DGC decrement flushes, load gossip),
   where the processor queues a sweep's worth of sends and moves on.
   The sends are gap-0 on purpose: spaced sends never outrun the
   injection port and always take the bypass path (that invariance is
   what the Table-1 gate below checks). Receive handling is made cheap
   (and identical in both configs) so the row measures the transport,
   not the receiver's dispatch loop. *)
let coalesce_burst ~coal ~faults ~rounds ~senders ~dests ~burst =
  let nodes = 16 in
  let msg_bytes = 8 in
  let round_gap = 50_000 in
  let config =
    {
      Machine.Engine.default_config with
      Machine.Engine.cost =
        { Machine.Cost_model.default with msg_receive_handling = 2 };
      coalesce = (if coal then Some Machine.Coalesce.default_config else None);
      faults;
    }
  in
  let m = Machine.Engine.create ~config ~nodes () in
  let count = ref 0 and lat_sum = ref 0 in
  let h =
    Machine.Engine.register_handler m Machine.Am.Service ~name:"coal-stamp"
      (fun _ node am ->
        match am.Machine.Am.payload with
        | B_stamp t0 ->
            incr count;
            lat_sum := !lat_sum + (Machine.Node.now node - t0)
        | _ -> ())
  in
  for r = 0 to rounds - 1 do
    Machine.Engine.schedule_at m ~time:(r * round_gap) (fun () ->
        for s = 0 to senders - 1 do
          let src = Machine.Engine.node m s in
          Machine.Engine.post m src (fun () ->
              for d = 1 to dests do
                let dst = (s + (d * 4) + 1) mod nodes in
                for _ = 1 to burst do
                  Machine.Engine.send_am m ~src ~dst ~handler:h
                    ~size_bytes:msg_bytes
                    (B_stamp (Machine.Node.now src))
                done
              done)
        done)
  done;
  Machine.Engine.run m;
  (m, !count, float_of_int !lat_sum /. float_of_int (max 1 !count))

let coalesce_bench ~smoke () =
  header "Aggregation: per-destination batching under bursty control traffic";
  section_start ();
  let rounds = if smoke then 8 else 32 in
  let senders = 4 and dests = 3 and burst = 16 in
  let expected = rounds * senders * dests * burst in
  let row name (m, count, mean) =
    Format.printf
      "%-18s %6d msgs %8d packet(s) %10d bytes  mean latency %8.0f ns@." name
      count
      (Machine.Engine.packets_sent m)
      (Machine.Engine.bytes_sent m) mean;
    (m, count, mean)
  in
  let off =
    row "batching off" (coalesce_burst ~coal:false ~faults:None ~rounds ~senders ~dests ~burst)
  in
  let on =
    row "batching on" (coalesce_burst ~coal:true ~faults:None ~rounds ~senders ~dests ~burst)
  in
  let m_off, n_off, lat_off = off and m_on, n_on, lat_on = on in
  note_machine_events m_off;
  note_machine_events m_on;
  if n_off <> expected || n_on <> expected then
    fail "delivery-count gate (expected %d)" expected;
  let p_off = Machine.Engine.packets_sent m_off
  and p_on = Machine.Engine.packets_sent m_on in
  (match Machine.Engine.coalesce_stats m_on with
  | Some s ->
      Format.printf
        "flush causes: size %d idle %d deadline %d ack %d credit %d; frames \
         per batch %a@."
        s.Machine.Coalesce.s_flush_size s.Machine.Coalesce.s_flush_idle
        s.Machine.Coalesce.s_flush_deadline s.Machine.Coalesce.s_flush_ack
        s.Machine.Coalesce.s_flush_credit Simcore.Histogram.pp
        s.Machine.Coalesce.s_occupancy
  | None -> ());
  Format.printf
    "packet reduction %.1fx (gate: >= 2x), mean latency %.0f -> %.0f ns \
     (gate: lower)@."
    (float_of_int p_off /. float_of_int (max 1 p_on))
    lat_off lat_on;
  if p_off < 2 * p_on then fail "packet-reduction gate";
  if lat_on >= lat_off then fail "mean-latency gate";

  (* Same burst under a lossy fabric: whole batches share a fate, the
     reliable layer re-sequences their frames, and delivery must still
     be exactly-once. *)
  let plan = Network.Faults.plan ~seed:11 ~drop:0.05 ~duplicate:0.02 () in
  let m_f, n_f, lat_f =
    coalesce_burst ~coal:true ~faults:(Some plan) ~rounds ~senders ~dests
      ~burst
  in
  note_machine_events m_f;
  let rel = Option.get (Machine.Engine.reliable m_f) in
  let acks_piggy = ref 0 in
  for node = 0 to Machine.Engine.node_count m_f - 1 do
    acks_piggy := !acks_piggy + Machine.Reliable.node_acks_piggybacked rel node
  done;
  Format.printf
    "with 5%% drop: %6d msgs %8d packet(s), mean latency %8.0f ns, %d \
     dropped, %d ack(s) piggybacked on batches, in flight %d@."
    n_f
    (Machine.Engine.packets_sent m_f)
    lat_f
    (Machine.Engine.packets_dropped m_f)
    !acks_piggy
    (Machine.Engine.reliable_in_flight m_f);
  if n_f <> expected || Machine.Engine.reliable_in_flight m_f <> 0 then
    fail "exactly-once-under-faults gate";

  (* The bypass invariant: with aggregation enabled but traffic spaced
     (every app workload — sends cost setup instructions that outpace
     the injection port), Table 1 must not move. *)
  let coal_cfg =
    {
      Machine.Engine.default_config with
      Machine.Engine.coalesce = Some Machine.Coalesce.default_config;
    }
  in
  let base = Apps.Microbench.measure () in
  let with_coal = Apps.Microbench.measure ~machine_config:coal_cfg () in
  let dev a b = 100. *. (b -. a) /. a in
  let d_dorm =
    dev base.Apps.Microbench.intra_dormant_ns
      with_coal.Apps.Microbench.intra_dormant_ns
  and d_inter =
    dev base.Apps.Microbench.inter_latency_ns
      with_coal.Apps.Microbench.inter_latency_ns
  in
  Format.printf
    "Table 1 with aggregation on: dormant send %.2f us (%+.1f%%), inter-node \
     latency %.2f us (%+.1f%%)  (gate: within 5%%)@."
    (with_coal.intra_dormant_ns /. 1000.)
    d_dorm
    (with_coal.inter_latency_ns /. 1000.)
    d_inter;
  if Float.abs d_dorm > 5. || Float.abs d_inter > 5. then
    fail "Table-1 preservation gate";
  emit "BENCH_coalesce.json"
    Services.Bench_json.
      [
         ("smoke", Bool smoke);
         ("messages", Int expected);
         ("packets_off", Int p_off);
         ("packets_on", Int p_on);
         ( "packet_reduction",
           Float (float_of_int p_off /. float_of_int (max 1 p_on)) );
         ("mean_latency_off_ns", Float lat_off);
         ("mean_latency_on_ns", Float lat_on);
         ("faulted_packets", Int (Machine.Engine.packets_sent m_f));
         ("faulted_dropped", Int (Machine.Engine.packets_dropped m_f));
         ("acks_piggybacked", Int !acks_piggy);
         ("table1_dormant_dev_pct", Float d_dorm);
         ("table1_inter_dev_pct", Float d_inter);
       ]

(* ------------------------------------------------------------------ *)
(* Crash recovery: kill a node mid-burst, restore, replay              *)
(* ------------------------------------------------------------------ *)

let recover_bench ~smoke () =
  header "Crash recovery: kill a node mid-burst, restore, replay";
  section_start ();
  let module Engine = Machine.Engine in
  let module H = Check.Harness in
  (* Sequenced bursts from three senders into fixed destinations on a
     raw engine with the recovery manager attached. *)
  let crash node at =
    {
      Recover.Manager.cs_node = node;
      cs_at = at;
      cs_down_ns = 40_000;
      cs_jitter_ns = 0;
    }
  in
  let crashes =
    crash 3 30_000 :: crash 6 65_000
    :: (* Full scale also kills a sender mid-burst. *)
       (if smoke then [] else [ crash 1 120_000 ])
  in
  let plan =
    Network.Faults.plan ~seed:11 ~drop:0.01 ~duplicate:0.0 ~jitter_ns:500 ()
  in
  let m =
    Engine.create
      ~config:{ Engine.default_config with Engine.faults = Some plan }
      ~nodes:8 ()
  in
  let tl = Services.Timeline.attach_machine m in
  let sq = H.seq m in
  let mgr = Recover.Manager.attach m ~app:(H.recovery_app sq) ~crashes () in
  H.send_rounds sq ~rounds:(if smoke then 3 else 6) ~start:10_000 ~burst:16;
  Engine.run m;
  note_machine_events m;
  let v = H.verdict sq in
  let lost = v.H.lost and dup = v.H.dup + v.H.reordered in
  let audit = Recover.Manager.audit_quiescent mgr in
  let get = Simcore.Stats.get (Engine.stats m) in
  print_counters (Engine.stats m) "recover.";
  Format.printf "%d packet(s) lost to down windows@." (Engine.crash_dropped m);
  let crashed = List.map (fun cs -> cs.Recover.Manager.cs_node) crashes in
  let worst nodes f = List.fold_left (fun acc i -> max acc (f i)) 0 nodes in
  let outage = worst crashed (H.max_gap sq) in
  let baseline =
    worst
      (List.filter (fun i -> not (List.mem i crashed)) (List.init 8 Fun.id))
      (H.max_gap sq)
  in
  let recovery_max = worst crashed (Recover.Manager.recovery_ns mgr) in
  Format.printf
    "lost %d, duplicated/reordered %d (gate: both 0); in flight %d@." lost dup
    (Engine.reliable_in_flight m);
  Format.printf
    "worst recovery %d ns (gate: <= 2 ms); delivery outage %d ns on crashed \
     nodes vs %d ns baseline (gate: <= 8 ms)@."
    recovery_max outage baseline;
  List.iter (fun v -> Format.printf "AUDIT %s@." v) audit;
  if lost > 0 || dup > 0 then fail "zero-lost/zero-duplicate gate";
  if Engine.reliable_in_flight m <> 0 then fail "in-flight-drained gate";
  if audit <> [] then fail "recovery-audit gate";
  if get "recover.restarts" <> List.length crashes then
    fail "restart-count gate";
  if recovery_max > 2_000_000 then fail "bounded-recovery-time gate";
  if outage > 8_000_000 then fail "delivery-outage gate";

  (* Deterministic replay: a recorded schedule of the recover workload
     (crash instants re-timed through recorded decision points) must
     replay to a bit-identical Timeline hash. *)
  ignore
    (replay_gate (workload "recover") ~seed:3 ~show:(fun a b ok ->
         Format.printf "recorded crash schedule replay: %016x / %016x %s@." a
           b
           (if ok then "identical" else "MISMATCH")));

  (* System-level composition: migration stream + DGC churn while a
     node's interface goes dark twice (network-down windows — the
     runtime keeps computing, the fabric drops its packets), with the
     location re-advertisement repair at each recovery point. *)
  let st = H.stream ~prefix:"rb_" and ch = H.churn ~prefix:"rb_" in
  let plan = Network.Faults.plan ~seed:5 ~drop:0.02 ~duplicate:0.0 () in
  let machine_config =
    { Engine.default_config with Engine.faults = Some plan }
  in
  let sys =
    System.boot ~machine_config ~nodes:4
      ~classes:[ st.H.cell; st.H.driver; ch.H.gcell; ch.H.churner ]
      ()
  in
  let machine = System.machine sys in
  let dark = 2 in
  let windows =
    [
      { Network.Faults.node = dark; from_ns = 40_000; until_ns = 80_000 };
      { Network.Faults.node = dark; from_ns = 160_000; until_ns = 200_000 };
    ]
  in
  (match Engine.faults_state machine with
  | Some f -> Network.Faults.set_crashes f windows
  | None -> assert false);
  let mig = Migrate.attach sys in
  let g = Dgc.attach ~interval_ns:120_000 sys in
  let count = if smoke then 36 else 96 in
  let cell_addr, d = H.place_stream st sys ~count in
  (* Park the stream's target on the dark node before the first window,
     move it away between the windows, and repair locations at each
     recovery point. *)
  Engine.schedule_at machine ~time:15_000 (fun () ->
      ignore (Migrate.move mig ~canon:cell_addr ~to_:dark));
  Engine.schedule_at machine ~time:120_000 (fun () ->
      ignore (Migrate.move mig ~canon:cell_addr ~to_:3));
  let readvertised = ref 0 in
  List.iter
    (fun w ->
      Engine.schedule_at machine ~time:(w.Network.Faults.until_ns + 1_000)
        (fun () ->
          readvertised := !readvertised + Migrate.readvertise mig ~node:dark))
    windows;
  H.start_churn ch sys ~cycles:(if smoke then 16 else 32);
  System.send_boot sys d st.H.start [];
  System.run sys;
  Dgc.settle g;
  note_events sys;
  let stream_ok = !(st.H.result) = Some (H.stream_expected ~count) in
  let dgc_audit = Dgc.audit g in
  let dgc_recovery =
    List.concat (List.init 4 (fun node -> Dgc.recovery_audit g ~node))
  in
  let held, limbo = Migrate.residual mig in
  Format.printf
    "dark-interface composition: stream %s, %d location update(s) \
     re-advertised, DGC audit %d + recovery audit %d finding(s), residual \
     %d/%d@."
    (if stream_ok then "exact" else "WRONG")
    !readvertised (List.length dgc_audit)
    (List.length dgc_recovery)
    held limbo;
  List.iter (fun v -> Format.printf "DGC %s@." v) dgc_audit;
  List.iter (fun v -> Format.printf "DGC-RECOVERY %s@." v) dgc_recovery;
  if
    (not stream_ok) || dgc_audit <> [] || dgc_recovery <> [] || held <> 0
    || limbo <> 0
  then fail "dark-interface composition gate";

  emit "BENCH_recover.json"
    Services.Bench_json.
      [
        ("smoke", Bool smoke);
        ("crashes", Int (get "recover.crashes"));
        ("restarts", Int (get "recover.restarts"));
        ("checkpoints", Int (get "recover.ckpts"));
        ("checkpoint_bytes", Int (get "recover.ckpt_bytes"));
        ("messages_replayed", Int (get "recover.replayed"));
        ("inbox_rebuilt", Int (get "recover.inbox_rebuilt"));
        ("recovery_ns_max", Int recovery_max);
        ("recovery_ns_total", Int (get "recover.recovery_ns"));
        ("delivery_outage_ns", Int outage);
        ("baseline_max_gap_ns", Int baseline);
        ("lost", Int lost);
        ("duplicated", Int dup);
        ( "timeline_hash",
          Str (Printf.sprintf "%016x" (Services.Timeline.hash tl)) );
        (* the replay gate above exits unless the replay was identical *)
        ("replay_identical", Bool true);
      ]

(* ------------------------------------------------------------------ *)
(* Open-loop traffic: sharded KV tier, latency percentiles, knee       *)
(* ------------------------------------------------------------------ *)

(* The sharded KV tier on a fresh system, spawned and ready for load. *)
let kv_boot ?machine_config ?rt_config ?multiactive ?ma_budget ~nodes ~shards
    () =
  let kv = Apps.Kv_store.create ~shards ?multiactive ?ma_budget () in
  let sys =
    System.boot ?machine_config ?rt_config ~nodes
      ~classes:(Apps.Kv_store.classes kv) ()
  in
  Apps.Kv_store.spawn kv sys;
  (kv, sys)

(* One open-loop run against a fresh 8-shard tier: [rate] req/s of
   virtual time for [requests] injections, optionally under a fault
   plan, with forced shard moves riding engine timers, and with the
   distributed collector attached. Returns the loadgen handle, the
   system, and the combined audit lines. *)
let traffic_run ?faults ?(moves = []) ?(with_dgc = false) ?(seed = 1)
    ?multiactive ?ma_budget ?rt_config
    ?(mix = Traffic.Loadgen.default_config.Traffic.Loadgen.mix) ~rate ~requests
    () =
  let module Engine = Machine.Engine in
  let kv, sys =
    kv_boot
      ~machine_config:{ Engine.default_config with Engine.faults }
      ?rt_config ?multiactive ?ma_budget ~nodes:8 ~shards:8 ()
  in
  let machine = System.machine sys in
  let mig = if moves = [] then None else Some (Migrate.attach sys) in
  let g =
    if with_dgc then Some (Dgc.attach ~interval_ns:150_000 sys) else None
  in
  (match mig with
  | Some m ->
      List.iter
        (fun (time, shard, to_) ->
          Engine.schedule_at machine ~time (fun () ->
              ignore
                (Migrate.move m ~canon:(Apps.Kv_store.shard_addr kv shard)
                   ~to_)))
        moves
  | None -> ());
  let lg =
    Traffic.Loadgen.launch
      {
        Traffic.Loadgen.default_config with
        seed;
        rate_rps = rate;
        requests;
        mix;
      }
      sys kv
  in
  System.run sys;
  Option.iter Dgc.settle g;
  note_events sys;
  let audit =
    Traffic.Loadgen.audit lg sys
    @ match g with Some g -> Dgc.audit g | None -> []
  in
  (lg, sys, audit)

(* One rate sweep: [run rate] reports one open-loop run per rate.
   Open-loop arrivals keep coming whether or not the shards keep up, so
   past saturation the queues — and the measured tail — grow with the
   run length instead of the service time. The knee is the first rate
   where p99 leaves the sustainable band (3x the lowest rate's p99) or
   goodput falls under 95% of offered; 0 if the whole sweep stays
   sustainable. *)
let knee_sweep rates run =
  let p99_base = ref 0. and knee = ref 0 in
  let rows =
    List.map
      (fun rate ->
        let r = run rate in
        if !p99_base = 0. then p99_base := r.Traffic.Report.r_p99_ns;
        let frac = r.Traffic.Report.r_goodput_rps /. float_of_int rate in
        if
          !knee = 0
          && (r.Traffic.Report.r_p99_ns > 3. *. !p99_base || frac < 0.95)
        then knee := rate;
        (rate, r))
      rates
  in
  (rows, !knee)

(* Exactly-once under faults: the version audit balances, the reliable
   layer drained, the plan really dropped packets, nothing timed out. *)
let faulted_gate ~what sys audit (r : Traffic.Report.t) =
  let m = System.machine sys in
  List.iter (fun v -> Format.printf "audit: %s@." v) audit;
  if
    audit <> []
    || Machine.Engine.reliable_in_flight m <> 0
    || Machine.Engine.packets_dropped m = 0
    || r.Traffic.Report.r_timeouts <> 0
  then fail "%s" what

let traffic_bench ~smoke ~baseline () =
  let module Engine = Machine.Engine in
  header "Open-loop traffic: sharded KV/session tier (8 shards on 8 nodes)";
  section_start ();
  let requests = if smoke then 600 else 4_000 in
  (* The tier's measured capacity is ~110k req/s (8 shards x 200
     modelled instructions per op); 60k offered keeps the sustainable
     run well below the knee the sweep then finds. *)
  let base_rate = 60_000 in

  (* Sustainable-rate run: every injected request must complete with a
     finite tail and no errors. *)
  let lg, sys, audit = traffic_run ~rate:base_rate ~requests () in
  let r = Traffic.Report.of_run lg sys in
  Format.printf "@[<v>%a@]@." Traffic.Report.pp r;
  let clean = Diagnostics.is_clean (Diagnostics.survey sys) in
  List.iter (fun v -> Format.printf "audit: %s@." v) audit;
  if
    r.Traffic.Report.r_timeouts <> 0
    || r.Traffic.Report.r_errors <> 0
    || audit <> [] || not clean
  then fail "sustainable-rate gate";

  (* Composition: the same offered load under 5% drop + duplication, one
     mid-run crash window on a shard-hosting node, two forced shard
     migrations, and the distributed collector riding along. The version
     audit proves exactly-once end to end. *)
  header "Open-loop traffic: 5% drop + crash window + shard moves + DGC";
  let plan =
    Network.Faults.plan ~seed:11 ~drop:0.05 ~duplicate:0.02 ~jitter_ns:1_000
      ~crashes:
        [ { Network.Faults.node = 1; from_ns = 100_000; until_ns = 180_000 } ]
      ()
  in
  let moves = [ (60_000, 1, 5); (200_000, 2, 0) ] in
  let lg_f, sys_f, audit_f =
    traffic_run ~faults:plan ~moves ~with_dgc:true ~seed:3 ~rate:base_rate
      ~requests ()
  in
  let r_f = Traffic.Report.of_run lg_f sys_f in
  Format.printf "@[<v>%a@]@." Traffic.Report.pp r_f;
  let m_f = System.machine sys_f in
  Format.printf
    "faulted run: %d packet(s) dropped, %d in flight at quiescence, audit %d \
     finding(s)@."
    (Engine.packets_dropped m_f)
    (Engine.reliable_in_flight m_f)
    (List.length audit_f);
  faulted_gate ~what:"exactly-once-under-faults gate" sys_f audit_f r_f;

  (* Replay gate: the whole subsystem must be schedule-deterministic —
     record a run of the check workload, replay its choice vector, and
     require bit-identical Timeline hashes. *)
  let hash = replay_gate (workload "traffic") ~seed:1 ~show:determinism in

  header "Open-loop traffic: rate sweep (knee where p99 departs)";
  let rates =
    if smoke then [ 50_000; 100_000; 200_000 ]
    else [ 50_000; 80_000; 100_000; 150_000; 200_000; 400_000; 800_000 ]
  in
  let sweep_requests = if smoke then 400 else 2_000 in
  let rows, knee =
    knee_sweep rates (fun rate ->
        let lg, sys, _ = traffic_run ~rate ~requests:sweep_requests () in
        Traffic.Report.of_run lg sys)
  in
  Format.printf "%10s %10s %10s %10s %10s %12s@." "rate(rps)" "p50(ns)"
    "p99(ns)" "p999(ns)" "goodput" "of offered";
  List.iter
    (fun (rate, (r : Traffic.Report.t)) ->
      Format.printf "%10d %10.0f %10.0f %10.0f %10.0f %11.1f%%@." rate
        r.Traffic.Report.r_p50_ns r.Traffic.Report.r_p99_ns
        r.Traffic.Report.r_p999_ns r.Traffic.Report.r_goodput_rps
        (100. *. r.Traffic.Report.r_goodput_rps /. float_of_int rate))
    rows;
  (match knee with
  | 0 -> Format.printf "no knee within the swept range@."
  | k -> Format.printf "knee: p99 departs at %d req/s offered@." k);

  emit "BENCH_traffic.json"
    (Traffic.Report.json_fields r
    @ Services.Bench_json.
        [
          ("smoke", Bool smoke);
          ("knee_rps", Int knee);
          ("replay_identical", Bool true);
          ("timeline_hash", Str (Printf.sprintf "%016x" hash));
          ("faulted_p99_ns", Int (int_of_float r_f.Traffic.Report.r_p99_ns));
        ]);

  (* p99 regression gate against a checked-in baseline. *)
  Option.iter
    (fun path ->
      let got = int_of_float r.Traffic.Report.r_p99_ns in
      baseline_gate ~path ~key:"p99_ns" ~what:"p99 regression" (fun want ->
          let limit = want + (want / 2) in
          Format.printf
            "p99 regression gate: %d ns vs baseline %d ns (limit 1.5x = %d)@."
            got want limit;
          got <= limit))
    baseline

(* ------------------------------------------------------------------ *)
(* Multiactive objects: compatibility-group concurrency in the tier    *)
(* ------------------------------------------------------------------ *)

(* Read-heavy (>= 90% get): the regime where single-writer/multi-reader
   shards pay off — gets overlap, puts/cas still serialize. *)
let ma_mix = { Traffic.Loadgen.m_get = 92; m_put = 5; m_cas = 2; m_mget = 1 }

let multiactive_bench ~smoke ~baseline () =
  let module Engine = Machine.Engine in
  header
    "Multiactive: read-heavy rate sweep, serialized vs annotated shards (8 \
     shards on 8 nodes)";
  section_start ();
  let sweep_requests = if smoke then 400 else 2_000 in
  let rates =
    if smoke then [ 60_000; 120_000; 240_000; 480_000 ]
    else
      [ 60_000; 90_000; 120_000; 180_000; 240_000; 360_000; 480_000; 720_000 ]
  in
  let last_rate = List.nth rates (List.length rates - 1) in
  let sweep ~multiactive =
    knee_sweep rates (fun rate ->
        let lg, sys, audit =
          traffic_run ~rate ~requests:sweep_requests ~mix:ma_mix ~multiactive
            ~ma_budget:8
            ~rt_config:{ System.default_rt_config with Kernel.ma_cores = 8 }
            ()
        in
        let r = Traffic.Report.of_run lg sys in
        if r.Traffic.Report.r_errors <> 0 || audit <> [] then begin
          List.iter (fun v -> Format.printf "audit: %s@." v) audit;
          fail "sweep-audit gate at %d req/s" rate
        end;
        r)
  in
  let ser_rows, ser_knee = sweep ~multiactive:false in
  let ma_rows, ma_knee = sweep ~multiactive:true in
  Format.printf "%10s | %10s %10s | %10s %10s@." "rate(rps)" "ser p99"
    "ser good%" "ma p99" "ma good%";
  List.iter2
    (fun (rate, (rs : Traffic.Report.t)) (_, (rm : Traffic.Report.t)) ->
      Format.printf "%10d | %10.0f %9.1f%% | %10.0f %9.1f%%@." rate
        rs.Traffic.Report.r_p99_ns
        (100. *. rs.Traffic.Report.r_goodput_rps /. float_of_int rate)
        rm.Traffic.Report.r_p99_ns
        (100. *. rm.Traffic.Report.r_goodput_rps /. float_of_int rate))
    ser_rows ma_rows;
  (* A build that survives the whole sweep has its knee beyond the last
     rate; counting it *at* the last rate only understates the ratio. *)
  let eff k = if k = 0 then last_rate else k in
  let ratio = float_of_int (eff ma_knee) /. float_of_int (eff ser_knee) in
  Format.printf
    "knee: serialized %s, multiactive %s -> ratio %.2fx (gate: >= 1.5x)@."
    (if ser_knee = 0 then Printf.sprintf "beyond %d" last_rate
     else string_of_int ser_knee)
    (if ma_knee = 0 then Printf.sprintf "beyond %d" last_rate
     else string_of_int ma_knee)
    ratio;
  if ratio < 1.5 then fail "multiactive knee gate";
  (* Saturated capacity — the goodput ceiling across the sweep — backs
     the knee up with a grid-independent number. *)
  let capacity rows =
    List.fold_left
      (fun acc (_, (r : Traffic.Report.t)) ->
        Float.max acc r.Traffic.Report.r_goodput_rps)
      0. rows
  in
  let cap_ratio = capacity ma_rows /. capacity ser_rows in
  Format.printf
    "saturated capacity: serialized %.0f req/s, multiactive %.0f req/s \
     (%.2fx)@."
    (capacity ser_rows) (capacity ma_rows) cap_ratio;

  (* Overlap anatomy at a backlogged rate with Zipf-skewed keys: one hot
     shard builds a real read backlog, and the load gossip's
     activation-queue depth separates "hot because serialized" from
     "hot because big". The mid-run load report is captured while the
     backlog exists (at quiescence every queue is empty by probe). *)
  header "Multiactive: overlap anatomy on a hot shard (Zipf keys)";
  let shards = 8 in
  let kv, sys =
    kv_boot
      ~rt_config:
        { System.default_rt_config with Kernel.gossip_interval_ns = 40_000 }
      ~multiactive:true ~nodes:8 ~shards ()
  in
  let load = Services.Load.attach sys in
  let mid_report = ref "" in
  Engine.schedule_at (System.machine sys) ~time:600_000 (fun () ->
      mid_report := Services.Load.report load);
  let lg =
    Traffic.Loadgen.launch
      {
        Traffic.Loadgen.default_config with
        rate_rps = 600_000;
        requests = (if smoke then 600 else 1_500);
        mix = ma_mix;
        key_dist = Traffic.Loadgen.Zipf 1.0;
      }
      sys kv
  in
  System.run sys;
  note_events sys;
  let audit = Traffic.Loadgen.audit lg sys in
  let st = System.stats sys in
  let peak = ref 0 and admitted = ref 0 in
  for i = 0 to shards - 1 do
    match System.lookup_obj sys (Apps.Kv_store.shard_addr kv i) with
    | Some o ->
        peak := max !peak (Multiactive.peak_overlap o);
        admitted := !admitted + Multiactive.admitted_total o
    | None -> ()
  done;
  let conflicts = Simcore.Stats.get st "ma.conflict" in
  Format.printf
    "admissions %d (shards %d), queued %d, overlapped starts %d, peak \
     overlap %d, conflicts %d (gate: 0)@."
    (Simcore.Stats.get st "ma.admit")
    !admitted
    (Simcore.Stats.get st "ma.queued")
    (Simcore.Stats.get st "ma.overlap")
    !peak conflicts;
  Format.printf "mid-run load report (gossiped load/activation-queue depth):@.%s"
    !mid_report;
  List.iter (fun v -> Format.printf "audit: %s@." v) audit;
  if conflicts <> 0 || !peak < 2 || audit <> [] then
    fail "overlap-anatomy gate";

  (* Exactly-once under faults with admission control in the path: 5%
     drop + duplication must not double-apply a write or lose one —
     the version audit balances end to end. *)
  header "Multiactive: exactly-once audit under 5% drop + duplication";
  let plan =
    Network.Faults.plan ~seed:11 ~drop:0.05 ~duplicate:0.02 ~jitter_ns:1_000 ()
  in
  let requests = if smoke then 600 else 2_000 in
  let lg_f, sys_f, audit_f =
    traffic_run ~faults:plan ~seed:3 ~multiactive:true ~mix:ma_mix
      ~rate:60_000 ~requests ()
  in
  let r_f = Traffic.Report.of_run lg_f sys_f in
  let m_f = System.machine sys_f in
  Format.printf
    "faulted run: %d/%d completed, %d packet(s) dropped, %d in flight, \
     audit %d finding(s)@."
    r_f.Traffic.Report.r_completed r_f.Traffic.Report.r_injected
    (Engine.packets_dropped m_f)
    (Engine.reliable_in_flight m_f)
    (List.length audit_f);
  faulted_gate ~what:"multiactive exactly-once gate" sys_f audit_f r_f;

  (* Replay gate: admission decisions route through the engine's
     decision points ("ma.admit.defer", "ma.pump.pick"), so a recorded
     run of the multiactive workload must replay bit-identically. *)
  let hash = replay_gate (workload "multiactive") ~seed:1 ~show:determinism in

  emit "BENCH_multiactive.json"
    Services.Bench_json.
      [
        ("smoke", Bool smoke);
        ("knee_serialized_rps", Int (eff ser_knee));
        ("knee_multiactive_rps", Int (eff ma_knee));
        ("knee_ratio", Float ratio);
        ("capacity_ratio", Float cap_ratio);
        ("peak_overlap", Int !peak);
        ("admissions", Int (Simcore.Stats.get st "ma.admit"));
        ("queued", Int (Simcore.Stats.get st "ma.queued"));
        ("overlapped_starts", Int (Simcore.Stats.get st "ma.overlap"));
        ("conflicts", Int conflicts);
        ("faulted_p99_ns", Int (int_of_float r_f.Traffic.Report.r_p99_ns));
        ("replay_identical", Bool true);
        ("timeline_hash", Str (Printf.sprintf "%016x" hash));
      ];

  (* Knee regression gate against a checked-in baseline: the annotated
     build's knee must not move left. *)
  Option.iter
    (fun path ->
      baseline_gate ~path ~key:"knee_multiactive_rps"
        ~what:"multiactive knee regression" (fun want ->
          Format.printf "knee regression gate: %d req/s vs baseline %d req/s@."
            (eff ma_knee) want;
          eff ma_knee >= want))
    baseline

(* ------------------------------------------------------------------ *)
(* Parallel engine: domain-sharded simulation, conservative lookahead  *)
(* ------------------------------------------------------------------ *)

(* A fresh saturated open-loop workload per measurement (a system is
   single-run): sharded arrivals with Zipf skew on the KV tier — the
   parallel engine's supported envelope (no faults, no migration, no
   gossip), and enough per-node work that domain sharding has
   something to overlap. *)
let parallel_workload ~nodes ~requests ~rate () =
  let kv, sys = kv_boot ~nodes ~shards:nodes () in
  let cfg =
    {
      Traffic.Loadgen.default_config with
      rate_rps = rate;
      requests;
      key_dist = Traffic.Loadgen.Zipf 1.0;
    }
  in
  let lg = Traffic.Loadgen.launch_sharded cfg sys kv in
  (sys, lg)

let parallel_bench ~smoke ~baseline () =
  header "Parallel engine: nodes sharded across domains, conservative lookahead";
  section_start ();
  let nodes = 8 in
  let requests = if smoke then 2_000 else 10_000 in
  let rate = 400_000 in
  let cores = Domain.recommended_domain_count () in
  (* One measurement: build the workload fresh, run it under [run], wall
     clock it, gate on the run's audit, and return its Timeline hash. *)
  let measure label run =
    let sys, lg = parallel_workload ~nodes ~requests ~rate () in
    let tl = Services.Timeline.attach sys in
    let t0 = Unix.gettimeofday () in
    run sys;
    let wall = Unix.gettimeofday () -. t0 in
    note_events sys;
    let audit = Traffic.Loadgen.audit lg sys in
    if audit <> [] then begin
      List.iter (fun v -> Format.printf "audit(%s): %s@." label v) audit;
      fail "parallel workload audit (%s)" label
    end;
    (wall, Services.Timeline.hash tl,
     Machine.Engine.events_processed (System.machine sys))
  in
  Format.printf "host cores: %d; lookahead: %d ns; %d nodes, %d requests at %d req/s@."
    cores
    (let sys, _ = parallel_workload ~nodes ~requests:1 ~rate () in
     Machine.Engine.lookahead_ns (System.machine sys))
    nodes requests rate;
  let seq_wall, _seq_hash, seq_events =
    measure "sequential" (fun sys -> System.run sys)
  in
  Format.printf "%10s %12s %12s %10s  %s@." "engine" "wall(s)" "events/s"
    "speedup" "timeline hash";
  Format.printf "%10s %12.3f %12.0f %9.2fx@." "seq" seq_wall
    (float_of_int seq_events /. seq_wall)
    1.0;
  let counts = [ 1; 2; 4; 8 ] in
  let rows =
    List.map
      (fun d ->
        let wall, hash, events =
          measure (Printf.sprintf "domains=%d" d) (fun sys ->
              System.run_parallel sys ~domains:d)
        in
        Format.printf "%8s %2d %12.3f %12.0f %9.2fx  %016x@." "domains" d wall
          (float_of_int events /. wall)
          (seq_wall /. wall) hash;
        (d, wall, hash, events))
      counts
  in
  (* Determinism gate (unconditional, any host): every domain count must
     produce the same canonical observation stream. *)
  let _, _, h1, _ = List.hd rows in
  List.iter
    (fun (d, _, h, _) ->
      if h <> h1 then
        fail
          "parallel determinism gate: hash %016x at %d domain(s) <> %016x at 1"
          h d h1)
    rows;
  Format.printf "determinism: identical Timeline hash at 1/2/4/8 domains@.";
  (* Speedup gate — only meaningful when the host actually has the
     cores; a 1- or 2-core CI runner reports the curve but cannot fail
     it. *)
  let wall_at d = match List.find_opt (fun (d', _, _, _) -> d' = d) rows with
    | Some (_, w, _, _) -> w
    | None -> nan
  in
  let speedup_4 = seq_wall /. wall_at 4 in
  if cores >= 4 then begin
    Format.printf "speedup at 4 domains: %.2fx (gate: >= 1.5x)@." speedup_4;
    if speedup_4 < 1.5 then fail "parallel speedup gate"
  end
  else
    Format.printf
      "speedup at 4 domains: %.2fx (gate skipped: host has %d core(s))@."
      speedup_4 cores;
  let total_events = List.fold_left (fun a (_, _, _, e) -> a + e) 0 rows in
  emit ~domains:4 "BENCH_parallel.json"
    Services.Bench_json.
      [
         ("smoke", Bool smoke);
         ("config_requests", Int requests);
         ("cores", Int cores);
         ("seq_wall_s", Float seq_wall);
         ("wall_1_s", Float (wall_at 1));
         ("wall_2_s", Float (wall_at 2));
         ("wall_4_s", Float (wall_at 4));
         ("wall_8_s", Float (wall_at 8));
         ("speedup_4", Float speedup_4);
         ("speedup_gated", Bool (cores >= 4));
         ("timeline_hash", Str (Printf.sprintf "%016x" h1));
         ("timeline_hash_int", Int h1);
         ("total_events", Int total_events);
       ];
  (* Baseline gate: the canonical observation stream is a pure function
     of the workload, so against a baseline recorded at the same
     request count the hash must match exactly. *)
  match baseline with
  | None -> ()
  | Some path -> (
      match Services.Bench_json.read_int_field ~path ~key:"config_requests" with
      | Some want_req when want_req <> requests ->
          Format.printf
            "baseline %s was recorded at %d request(s), this run used %d — \
             hash gate skipped@."
            path want_req requests
      | _ ->
          baseline_gate ~path ~key:"timeline_hash_int" ~what:"baseline hash"
            (fun want ->
              Format.printf "baseline hash gate: %016x vs baseline %016x %s@."
                h1 want
                (if h1 = want then "(ok)" else "(MISMATCH)");
              h1 = want))

(* ------------------------------------------------------------------ *)
(* Schedule explorer: sweep perturbed schedules, shrink failures       *)
(* ------------------------------------------------------------------ *)

let explore ~smoke ~schedules ~seed ~workload ~replay ~out_dir () =
  let module E = Check.Explore in
  header "Schedule explorer";
  match replay with
  | Some path ->
      let r = E.replay_file path in
      let o = r.E.rp_outcome in
      Format.printf "workload %s, %d choice(s)@." o.E.o_workload
        (Array.length o.E.o_trace);
      List.iter
        (fun (p, d) -> Format.printf "violation: %s: %s@." p d)
        o.E.o_violations;
      (match o.E.o_crash with
      | Some e -> Format.printf "crash: %s@." e
      | None -> ());
      Format.printf "replay hashes: %016x / %016x@." o.E.o_hash
        r.E.rp_second_hash;
      if not r.E.rp_identical then fail "replay is not bit-identical";
      Format.printf "replay bit-identical: yes@.";
      if E.failed o then
        Format.printf "schedule still failing (as a reproducer should)@."
      else Format.printf "schedule passes: the pinned bug stays fixed@."
  | None ->
      let workloads =
        match workload with
        | None -> Check.Workloads.all
        | Some n -> (
            match Check.Workloads.find n with
            | Some w -> [ w ]
            | None ->
                Format.printf "unknown workload %s@." n;
                exit 2)
      in
      let schedules =
        match schedules with Some n -> n | None -> if smoke then 6 else 40
      in
      (* Determinism gate first: a recorded schedule must replay
         bit-identically on every workload, failing or not. *)
      List.iter
        (fun w ->
          ignore
            (replay_gate ~allow_failing:true w ~seed
               ~show:
                 (determinism
                    ~label:(Printf.sprintf "%-10s " w.Check.Workloads.w_name))))
        workloads;
      let out_dir = Option.value out_dir ~default:"." in
      let summary =
        E.sweep ~out_dir
          ~log:(fun s -> Format.printf "  %s@." s)
          ~workloads ~schedules ~seed ()
      in
      Format.printf "%d run(s) across %d workload(s): %d failing schedule(s)@."
        summary.E.runs (List.length workloads)
        (List.length summary.E.failures);
      if summary.E.failures <> [] then begin
        List.iter
          (fun f ->
            let o = f.E.f_outcome in
            Format.printf "FAIL %s (seed %s): %s@." o.E.o_workload
              (match o.E.o_seed with Some s -> string_of_int s | None -> "-")
              (match (o.E.o_violations, o.E.o_crash) with
              | (p, d) :: _, _ -> p ^ ": " ^ d
              | [], Some e -> "crash: " ^ e
              | [], None -> "?"))
          summary.E.failures;
        fail "%d failing schedule(s)" (List.length summary.E.failures)
      end

(* ------------------------------------------------------------------ *)

(* Pull "[key] [value]" option pairs out of the raw argument list,
   returning the value and the remaining arguments. *)
let extract_opt key args =
  let rec go = function
    | [] -> (None, [])
    | k :: v :: rest when k = key -> (Some v, rest)
    | x :: rest ->
        let r, rest' = go rest in
        (r, x :: rest')
  in
  go args

let () =
  Format.set_margin 200;
  let args = Array.to_list Sys.argv |> List.tl in
  let schedules, args = extract_opt "--schedules" args in
  let seed, args = extract_opt "--seed" args in
  let workload, args = extract_opt "--workload" args in
  let replay, args = extract_opt "--replay" args in
  let out_dir, args = extract_opt "--out" args in
  let baseline, args = extract_opt "--baseline" args in
  let full = List.mem "--full" args in
  let smoke = List.mem "--smoke" args in
  let named = List.filter (fun a -> a <> "--full" && a <> "--smoke") args in
  let named = if named = [] then [ "all" ] else named in
  let sections =
    [
      (* The explorer is a checker, not a benchmark: it only runs when
         asked for by name (never under "all"). *)
      ( "explore",
        fun () ->
          explore ~smoke
            ~schedules:(Option.map int_of_string schedules)
            ~seed:(Option.fold ~none:1 ~some:int_of_string seed)
            ~workload ~replay ~out_dir () );
      ("table1", table1);
      ("table2", table2);
      ("table3", table3);
      ("table4", table4 ~full);
      ("fig5", fig5 ~full);
      ("fig6", fig6 ~full);
      ("ablations", ablations);
      ("faults", faults ~smoke);
      ("migrate", migrate_bench ~smoke);
      ("dgc", dgc_bench ~smoke);
      ("coalesce", coalesce_bench ~smoke);
      ("recover", recover_bench ~smoke);
      ("traffic", traffic_bench ~smoke ~baseline);
      ("multiactive", multiactive_bench ~smoke ~baseline);
      ("parallel", parallel_bench ~smoke ~baseline);
    ]
  in
  let known = "all" :: List.map fst sections in
  (match List.find_opt (fun a -> not (List.mem a known)) named with
  | Some bad ->
      Printf.eprintf
        "main.exe: unknown argument %s; usage: main.exe [%s]... [--full] \
         [--smoke] [--baseline F] [--schedules N] [--seed N] [--workload \
         NAME] [--out DIR] [--replay FILE]\n"
        bad (String.concat "|" known);
      exit 2
  | None -> ());
  List.iter
    (fun (name, run) ->
      if List.mem name named || (name <> "explore" && List.mem "all" named)
      then run ())
    sections;
  Format.printf "@."
