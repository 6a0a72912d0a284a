(* The explorer's workload catalog: one small end-to-end program per
   subsystem stack (plain app, app under faults, migration stream, DGC
   churn, coalesced bursts). Each run wires every simulator decision
   point to the given schedule, runs the invariant monitor periodically
   and at quiescence, checks its own end-to-end answer, and reports the
   Timeline hash — the digest replays are compared against. *)

open Core
module Engine = Machine.Engine

type report = { r_hash : int; r_violations : (string * string) list }
type t = { w_name : string; w_run : Schedule.t -> report }

let monitor_interval_ns = 25_000

(* Route every engine decision point through the schedule. *)
let wire sched machine =
  Engine.set_tie_break machine
    (Some (fun n -> Schedule.choice sched ~tag:"event.tie" n));
  Array.iter
    (fun node ->
      Machine.Node.set_inbox_tie_break node
        (Some (fun n -> Schedule.choice sched ~tag:"inbox.tie" n)))
    (Engine.nodes machine);
  Engine.set_decision_source machine
    (Some (fun tag n -> Schedule.choice sched ~tag n))

let finish mon tl extra =
  Monitor.check_quiescent mon;
  let vs =
    List.map
      (fun v -> (v.Monitor.v_probe, v.Monitor.v_detail))
      (Monitor.violations mon)
  in
  let r = { r_hash = Services.Timeline.hash tl; r_violations = vs @ extra } in
  Services.Timeline.detach tl;
  r

(* A fault plan whose seed (and whether it exists at all) comes from the
   schedule, so shrinking toward zeros turns the faults off. *)
let drawn_faults sched ~tag =
  match Schedule.choice sched ~tag 4 with
  | 0 -> None
  | k ->
      let seed = 1 + Schedule.choice sched ~tag:(tag ^ ".seed") 1_000_000 in
      let drop = 0.04 *. float_of_int k in
      Some (Network.Faults.plan ~seed ~drop ~duplicate:0.05 ~jitter_ns:1_000 ())

(* --- fan-out / accumulate: creation, cross-node sends, scheduling ---- *)

let p_work = Pattern.intern "chk_work" ~arity:3
let p_add = Pattern.intern "chk_add" ~arity:1
let p_spawn = Pattern.intern "chk_spawn" ~arity:2

let acc_cls () =
  Class_def.define ~name:"chk_acc" ~state:[| "sum"; "n" |]
    ~init:(fun _ -> [| Value.int 0; Value.int 0 |])
    ~methods:
      [
        ( p_add,
          fun ctx msg ->
            let k = Value.to_int (Message.arg msg 0) in
            Ctx.set ctx 0 (Value.int (Value.to_int (Ctx.get ctx 0) + k));
            Ctx.set ctx 1 (Value.int (Value.to_int (Ctx.get ctx 1) + 1)) );
      ]
    ()

let worker_cls () =
  Class_def.define ~name:"chk_worker" ~state:[| "acc" |]
    ~init:(fun args -> Array.of_list args)
    ~methods:
      [
        ( p_work,
          fun ctx msg ->
            let k = Value.to_int (Message.arg msg 0) in
            let left = Value.to_int (Message.arg msg 1) in
            let acc =
              match Ctx.get ctx 0 with Value.Addr a -> a | _ -> assert false
            in
            Ctx.send ctx acc p_add [ Value.int k ];
            if left > 1 then
              Ctx.send ctx (Ctx.self ctx) p_work
                [ Value.int (k + 1); Value.int (left - 1); Message.arg msg 2 ]
        );
      ]
    ()

let root_cls ~acc_cls ~worker_cls () =
  Class_def.define ~name:"chk_root" ~state:[| "acc" |]
    ~methods:
      [
        ( p_spawn,
          fun ctx msg ->
            let workers = Value.to_int (Message.arg msg 0) in
            let rounds = Value.to_int (Message.arg msg 1) in
            let acc = Ctx.create_local ctx acc_cls [] in
            Ctx.set ctx 0 (Value.Addr acc);
            for w = 0 to workers - 1 do
              let target = (w + 1) mod Ctx.node_count ctx in
              let wk =
                Ctx.create_on ctx ~target worker_cls [ Value.Addr acc ]
              in
              Ctx.send ctx wk p_work
                [ Value.int (w * rounds); Value.int rounds; Value.int w ]
            done );
      ]
    ()

let run_fanout ~faults sched =
  let machine_config = { Engine.default_config with Engine.faults } in
  let acc = acc_cls () in
  let worker = worker_cls () in
  let root = root_cls ~acc_cls:acc ~worker_cls:worker () in
  let sys =
    System.boot ~machine_config ~nodes:8 ~classes:[ acc; worker; root ] ()
  in
  let machine = System.machine sys in
  wire sched machine;
  let tl = Services.Timeline.attach sys in
  let mon = Monitor.create () in
  Probes.register_standard mon sys ();
  Monitor.attach_periodic mon machine ~interval_ns:monitor_interval_ns;
  let workers = 6 and rounds = 10 in
  let r = System.create_root sys ~node:0 root [] in
  System.send_boot sys r p_spawn [ Value.int workers; Value.int rounds ];
  System.run sys;
  let n = workers * rounds in
  let app_violations =
    match System.lookup_obj sys r with
    | Some robj -> (
        match robj.Kernel.state.(0) with
        | Value.Addr acc_addr -> (
            match System.lookup_obj sys acc_addr with
            | Some aobj ->
                let sum = Value.to_int aobj.Kernel.state.(0) in
                let count = Value.to_int aobj.Kernel.state.(1) in
                let want_sum = n * (n - 1) / 2 in
                if sum <> want_sum || count <> n then
                  [
                    ( "app",
                      Printf.sprintf
                        "fanout: sum=%d count=%d, expected sum=%d count=%d"
                        sum count want_sum n );
                  ]
                else []
            | None -> [ ("app", "fanout: accumulator object not found") ])
        | _ -> [ ("app", "fanout: root holds no accumulator address") ])
    | None -> [ ("app", "fanout: root object not found") ]
  in
  finish mon tl app_violations

let app = { w_name = "app"; w_run = (fun sched -> run_fanout ~faults:None sched) }

let faults =
  {
    w_name = "faults";
    w_run =
      (fun sched ->
        let seed = 1 + Schedule.choice sched ~tag:"fault.seed" 1_000_000 in
        let jitter = 500 * (1 + Schedule.choice sched ~tag:"fault.jitter" 4) in
        let plan =
          Network.Faults.plan ~seed ~drop:0.08 ~duplicate:0.05
            ~jitter_ns:jitter ()
        in
        run_fanout ~faults:(Some plan) sched);
  }

(* --- migration: an order-sensitive stream across forced moves -------- *)

let migrate_wl =
  {
    w_name = "migrate";
    w_run =
      (fun sched ->
        let faults = drawn_faults sched ~tag:"mig.fault" in
        let machine_config = { Engine.default_config with Engine.faults } in
        let st = Harness.stream ~prefix:"chk_m" in
        let sys =
          System.boot ~machine_config ~nodes:4
            ~classes:[ st.Harness.cell; st.Harness.driver ]
            ()
        in
        let machine = System.machine sys in
        wire sched machine;
        let tl = Services.Timeline.attach sys in
        let mig = Migrate.attach sys in
        let mon = Monitor.create () in
        Probes.register_standard mon sys ~migrate:mig ();
        Monitor.attach_periodic mon machine ~interval_ns:monitor_interval_ns;
        let count = 36 in
        let cell_addr, d = Harness.place_stream st sys ~count in
        (* Force moves while the stream is in flight; times and targets
           come from the schedule (0 everywhere = no moves at all). *)
        let moves = Schedule.choice sched ~tag:"mig.moves" 6 in
        for k = 0 to moves - 1 do
          let to_ = Schedule.choice sched ~tag:"mig.to" 4 in
          let phase = Schedule.choice sched ~tag:"mig.phase" 8 in
          Engine.schedule_at machine
            ~time:(10_000 + (k * 25_000) + (phase * 3_000))
            (fun () -> ignore (Migrate.move mig ~canon:cell_addr ~to_))
        done;
        System.send_boot sys d st.Harness.start [];
        System.run sys;
        let want_hash, want_sum = Harness.stream_expected ~count in
        let app_violations =
          match !(st.Harness.result) with
          | Some (h, s) when h = want_hash && s = want_sum -> []
          | Some (h, s) ->
              [
                ( "app",
                  Printf.sprintf
                    "migrate stream: hash=%d sum=%d, expected hash=%d sum=%d \
                     (reorder or loss)"
                    h s want_hash want_sum );
              ]
          | None -> [ ("app", "migrate stream: report never arrived") ]
        in
        finish mon tl app_violations);
  }

(* --- DGC churn with aggregation riding -------------------------------- *)

let dgc_wl =
  {
    w_name = "dgc";
    w_run =
      (fun sched ->
        let faults = drawn_faults sched ~tag:"dgc.fault" in
        let machine_config =
          {
            Engine.default_config with
            Engine.faults;
            coalesce = Some Machine.Coalesce.default_config;
          }
        in
        let ch = Harness.churn ~prefix:"chk_" in
        let sys =
          System.boot ~machine_config ~nodes:4
            ~classes:[ ch.Harness.gcell; ch.Harness.churner ]
            ()
        in
        let machine = System.machine sys in
        wire sched machine;
        let tl = Services.Timeline.attach sys in
        let interval_ns =
          100_000 + (10_000 * Schedule.choice sched ~tag:"dgc.phase" 8)
        in
        let g = Dgc.attach ~interval_ns sys in
        let mon = Monitor.create () in
        Probes.register_standard mon sys ~dgc:g ();
        Monitor.attach_periodic mon machine ~interval_ns:monitor_interval_ns;
        Harness.start_churn ch sys ~cycles:24;
        System.run sys;
        Dgc.settle g;
        let extra =
          let report = Diagnostics.survey sys in
          if Diagnostics.is_clean report then []
          else
            [
              ( "app",
                Format.asprintf "dgc churn: unclean quiescence: %a"
                  Diagnostics.pp report );
            ]
        in
        finish mon tl extra);
  }

(* --- sequenced bursts: exactly-once FIFO per channel ------------------ *)

(* Three rounds of sequenced bursts on a raw 8-node engine under
   [config], with the crash-recovery manager attached when [crashes] is
   given. The monitor runs the reliable probe, the coalesce probe when
   batching is on, and the recovery audits; the burst's exactly-once
   FIFO verdict is the app check. *)
let run_bursts sched ~config ?crashes ~start ~burst () =
  let m = Engine.create ~config ~nodes:8 () in
  wire sched m;
  let tl = Services.Timeline.attach_machine m in
  let s = Harness.seq m in
  let mgr =
    Option.map
      (fun crashes ->
        Recover.Manager.attach m ~app:(Harness.recovery_app s) ~crashes ())
      crashes
  in
  let mon = Monitor.create () in
  Monitor.register mon ~name:"reliable" ~when_:Monitor.At_quiescence
    (Probes.reliable m);
  if config.Engine.coalesce <> None then
    Monitor.register mon ~name:"coalesce" ~when_:Monitor.At_quiescence
      (Probes.coalesce m);
  Option.iter (Probes.register_recovery mon) mgr;
  Monitor.attach_periodic mon m ~interval_ns:monitor_interval_ns;
  Harness.send_rounds s ~rounds:3 ~start ~burst;
  Engine.run m;
  let v = Harness.verdict s in
  finish mon tl (List.map (fun d -> ("app", d)) v.Harness.findings)

let coalesce_wl =
  {
    w_name = "coalesce";
    w_run =
      (fun sched ->
        let faults = drawn_faults sched ~tag:"co.fault" in
        let config =
          {
            Engine.default_config with
            Engine.faults;
            coalesce = Some Machine.Coalesce.default_config;
          }
        in
        run_bursts sched ~config ~start:0 ~burst:16 ());
  }

(* --- crash recovery: kill nodes mid-burst, restore, replay ------------ *)

let recover_wl =
  {
    w_name = "recover";
    w_run =
      (fun sched ->
        (* The recovery manager needs a live reliable layer, so a fault
           plan always exists here; its drop rate (possibly zero) is
           drawn on top. *)
        let seed = 1 + Schedule.choice sched ~tag:"rec.seed" 1_000_000 in
        let drop =
          0.02 *. float_of_int (Schedule.choice sched ~tag:"rec.drop" 3)
        in
        let plan =
          Network.Faults.plan ~seed ~drop ~duplicate:0.0 ~jitter_ns:500 ()
        in
        let config =
          { Engine.default_config with Engine.faults = Some plan }
        in
        let nodes = 8 in
        let crashes =
          let n = Schedule.choice sched ~tag:"rec.crashes" 3 in
          let first = Schedule.choice sched ~tag:"rec.victim" nodes in
          List.init n (fun k ->
              {
                (* Distinct victims: a node never crashes twice here. *)
                Recover.Manager.cs_node = (first + (3 * k)) mod nodes;
                cs_at =
                  25_000 + (k * 35_000)
                  + (2_000 * Schedule.choice sched ~tag:"rec.phase" 8);
                cs_down_ns =
                  20_000 + (5_000 * Schedule.choice sched ~tag:"rec.down" 5);
                cs_jitter_ns = 2_000;
              })
        in
        run_bursts sched ~config ~crashes ~start:10_000 ~burst:12 ());
  }

(* --- hostile: faults + coalescing + crash recovery ------------------- *)

let hostile_wl =
  {
    w_name = "hostile";
    w_run =
      (fun sched ->
        (* Every hostile-network layer in one run: a lossy,
           duplicating fabric under per-destination batching, with the
           recovery manager crashing nodes mid-burst. The explorer
           perturbs its decision points and checks exactly-once FIFO
           per channel, quiescent recovery and a drained reliable
           layer. This composition is sequential-only: the parallel
           engine rejects fault plans and recovery hooks. *)
        let seed = 1 + Schedule.choice sched ~tag:"ho.seed" 1_000_000 in
        let drop =
          0.02 *. float_of_int (Schedule.choice sched ~tag:"ho.drop" 3)
        in
        let plan =
          Network.Faults.plan ~seed ~drop ~duplicate:0.02 ~jitter_ns:500 ()
        in
        let config =
          {
            Engine.default_config with
            Engine.faults = Some plan;
            coalesce =
              Some
                {
                  Machine.Coalesce.default_config with
                  Machine.Coalesce.max_delay_ns = 2_000;
                };
          }
        in
        let nodes = 8 in
        let crashes =
          let first = Schedule.choice sched ~tag:"ho.victim" nodes in
          List.init 2 (fun k ->
              {
                (* Distinct victims, like the recover workload. *)
                Recover.Manager.cs_node = (first + (4 * k)) mod nodes;
                cs_at =
                  30_000 + (k * 45_000)
                  + (2_000 * Schedule.choice sched ~tag:"ho.phase" 8);
                cs_down_ns = 25_000;
                cs_jitter_ns = 2_000;
              })
        in
        run_bursts sched ~config ~crashes ~start:10_000 ~burst:12 ());
  }

(* --- open-loop traffic: sharded KV tier under faults + shard moves ---- *)

(* One driver for both KV workloads; every choice tag starts with [tag].
   [ma_budget] makes the shards multiactive with that activation budget.
   Shard moves are forced while requests are in flight; everything —
   whether any move happens at all — comes from the schedule, so
   shrinking toward zeros turns the churn off. Under multiactive shards
   the moves exercise drain-before-freeze: the freeze must wait for the
   running activation set to empty and ship the group queues intact. *)
let kv_wl ~name ~tag ?ma_budget ~mix ~key_dist () =
  {
    w_name = name;
    w_run =
      (fun sched ->
        let faults = drawn_faults sched ~tag:(tag ^ ".fault") in
        let machine_config = { Engine.default_config with Engine.faults } in
        let nodes = 4 in
        let kv =
          Apps.Kv_store.create ~shards:4 ~keys_per_shard:4 ~mget_fan:2
            ~multiactive:(Option.is_some ma_budget) ?ma_budget ()
        in
        let sys =
          System.boot ~machine_config ~nodes
            ~classes:(Apps.Kv_store.classes kv)
            ()
        in
        let machine = System.machine sys in
        wire sched machine;
        let tl = Services.Timeline.attach sys in
        Apps.Kv_store.spawn kv sys;
        let mig = Migrate.attach sys in
        let mon = Monitor.create () in
        Probes.register_standard mon sys ~migrate:mig ();
        Monitor.attach_periodic mon machine ~interval_ns:monitor_interval_ns;
        let lg =
          Traffic.Loadgen.launch
            {
              Traffic.Loadgen.default_config with
              Traffic.Loadgen.seed =
                1 + Schedule.choice sched ~tag:(tag ^ ".seed") 1_000_000;
              rate_rps = 400_000;
              requests = 60;
              mix;
              key_dist;
            }
            sys kv
        in
        Monitor.register mon ~name:"traffic" ~when_:Monitor.At_quiescence
          (Probes.traffic sys lg);
        let moves = Schedule.choice sched ~tag:(tag ^ ".moves") 4 in
        for k = 0 to moves - 1 do
          let shard = Schedule.choice sched ~tag:(tag ^ ".shard") 4 in
          let to_ = Schedule.choice sched ~tag:(tag ^ ".to") nodes in
          let phase = Schedule.choice sched ~tag:(tag ^ ".phase") 8 in
          Engine.schedule_at machine
            ~time:(15_000 + (k * 30_000) + (phase * 2_000))
            (fun () ->
              ignore
                (Migrate.move mig
                   ~canon:(Apps.Kv_store.shard_addr kv shard)
                   ~to_))
        done;
        System.run sys;
        finish mon tl []);
  }

let traffic_wl =
  kv_wl ~name:"traffic" ~tag:"tr" ~mix:Traffic.Loadgen.default_mix
    ~key_dist:Traffic.Loadgen.Uniform ()

(* Read-heavy and Zipf-skewed, so one hot shard actually builds the
   overlapping read backlog the admission rules govern; the deferral
   ("ma.admit.defer") and pump-order ("ma.pump.pick") decision points
   are drawn from the schedule like every other choice. *)
let multiactive_wl =
  kv_wl ~name:"multiactive" ~tag:"ma" ~ma_budget:3
    ~mix:{ Traffic.Loadgen.m_get = 90; m_put = 6; m_cas = 3; m_mget = 1 }
    ~key_dist:(Traffic.Loadgen.Zipf 1.1) ()

let all =
  [
    app;
    faults;
    migrate_wl;
    dgc_wl;
    coalesce_wl;
    recover_wl;
    hostile_wl;
    traffic_wl;
    multiactive_wl;
  ]

let find name = List.find_opt (fun w -> w.w_name = name) all
