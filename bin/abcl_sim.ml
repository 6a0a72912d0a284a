(* abcl-sim: command-line driver for the ABCL/onAP1000 reproduction.

   Subcommands run the bundled workloads on a simulated multicomputer
   with configurable size, scheduler, placement policy and network
   parameters, and print the run's virtual-time results and statistics. *)

open Cmdliner

(* --- common options --- *)

let nodes_t =
  Arg.(value & opt int 64 & info [ "p"; "nodes" ] ~docv:"P" ~doc:"Number of processor nodes.")

let seed_t =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic simulation seed.")

let naive_t =
  Arg.(value & flag & info [ "naive" ] ~doc:"Use the naive always-buffer scheduler (Section 6.3 baseline).")

let stock_t =
  Arg.(value & opt int 2 & info [ "stock" ] ~docv:"K" ~doc:"Chunk-stock size per (requester, target) pair.")

let placement_conv =
  Arg.enum
    [
      ("round-robin", Core.Kernel.Round_robin);
      ("neighbor", Core.Kernel.Neighbor_round_robin);
      ("random", Core.Kernel.Random_node);
      ("self", Core.Kernel.Self_node);
    ]

let placement_t =
  Arg.(
    value
    & opt placement_conv Core.Kernel.Round_robin
    & info [ "placement" ] ~docv:"POLICY"
        ~doc:
          "Remote-creation placement policy: round-robin, neighbor, random \
           or self.")

let interrupt_t =
  Arg.(value & flag & info [ "interrupt" ] ~doc:"Interrupt-driven message delivery instead of polling.")

let contention_t =
  Arg.(value & flag & info [ "contention" ] ~doc:"Model per-link contention along torus routes.")

let stats_t =
  Arg.(value & flag & info [ "stats" ] ~doc:"Dump all runtime statistics counters after the run.")

let configs ?(contention = false) naive stock placement interrupt seed =
  let rt_config =
    {
      (if naive then Core.System.naive_rt_config
       else Core.System.default_rt_config)
      with
      Core.Kernel.stock_size = stock;
      placement;
    }
  in
  let machine_config =
    {
      Machine.Engine.default_config with
      Machine.Engine.delivery =
        (if interrupt then Machine.Engine.Interrupt else Machine.Engine.Polling);
      fabric =
        {
          Network.Fabric.default_config with
          Network.Fabric.contention;
        };
      seed;
    }
  in
  (rt_config, machine_config)

let dump_stats sys =
  Format.printf "--- statistics ---@.%a@." Simcore.Stats.pp
    (Core.System.stats sys)

(* --- nqueens --- *)

let nqueens n nodes naive stock placement interrupt contention seed stats timeline =
  let rt_config, machine_config =
    configs ~contention naive stock placement interrupt seed
  in
  let seq = Apps.Nqueens_seq.solve ~n in
  let seq_time = Apps.Nqueens_seq.modeled_time machine_config.Machine.Engine.cost seq in
  if timeline then begin
    (* A separate run through the lower-level API, so the timeline can
       attach. *)
    let cls = Apps.Nqueens_par.solver_cls () in
    let sys = Core.System.boot ~machine_config ~rt_config ~nodes ~classes:[ cls ] () in
    let tl = Services.Timeline.attach sys in
    let root =
      Core.System.create_root sys ~node:0 cls
        [ Core.Value.int n; Core.Value.int Apps.Queens_board.empty_packed;
          Core.Value.unit ]
    in
    Core.System.send_boot sys root (Core.Pattern.intern "expand" ~arity:0) [];
    Core.System.run sys;
    print_string (Services.Timeline.render tl);
    Services.Timeline.detach tl
  end;
  let r, sys =
    Apps.Nqueens_par.run_sys ~machine_config ~rt_config ~nodes ~n ()
  in
  Format.printf "solutions:        %d@." r.Apps.Nqueens_par.solutions;
  Format.printf "objects created:  %d@." r.objects_created;
  Format.printf "messages:         %d@." r.messages;
  Format.printf "elapsed:          %a (sequential %a)@." Simcore.Time.pp
    r.elapsed Simcore.Time.pp seq_time;
  Format.printf "speedup:          %.1fx, utilization %.0f%%@."
    (float_of_int seq_time /. float_of_int r.elapsed)
    (100. *. r.utilization);
  Format.printf "local msgs to dormant objects: %.0f%%@."
    (100. *. r.local_dormant_fraction);
  if stats then begin
    Format.printf "heap: %d KB@." (r.heap_words * 4 / 1024);
    dump_stats sys
  end

let nqueens_cmd =
  let n_t = Arg.(value & opt int 10 & info [ "n" ] ~docv:"N" ~doc:"Board size.") in
  let timeline_t =
    Arg.(value & flag & info [ "timeline" ] ~doc:"Render a per-node busy/idle timeline.")
  in
  Cmd.v
    (Cmd.info "nqueens" ~doc:"The paper's N-queens benchmark (Section 6.2).")
    Term.(
      const nqueens $ n_t $ nodes_t $ naive_t $ stock_t $ placement_t
      $ interrupt_t $ contention_t $ seed_t $ stats_t $ timeline_t)

(* --- ring --- *)

let ring nodes laps naive stock placement interrupt seed =
  let rt_config, machine_config = configs naive stock placement interrupt seed in
  let r = Apps.Ring.run ~machine_config ~rt_config ~nodes ~laps () in
  Format.printf "%d hops in %a: %.2f us per inter-node message@."
    r.Apps.Ring.hops Simcore.Time.pp r.elapsed
    (r.ns_per_hop /. 1000.)

let ring_cmd =
  let laps_t =
    Arg.(value & opt int 32 & info [ "laps" ] ~docv:"L" ~doc:"Laps around the ring.")
  in
  Cmd.v
    (Cmd.info "ring" ~doc:"Token ring measuring inter-node message latency.")
    Term.(
      const ring $ nodes_t $ laps_t $ naive_t $ stock_t $ placement_t
      $ interrupt_t $ seed_t)

(* --- fib --- *)

let fib n nodes naive stock placement interrupt seed =
  let rt_config, machine_config = configs naive stock placement interrupt seed in
  let r = Apps.Fib.run ~machine_config ~rt_config ~nodes ~n () in
  Format.printf "fib(%d) = %d (%d objects, %d blocking receptions, %a)@." n
    r.Apps.Fib.value r.objects_created r.blocked_waits Simcore.Time.pp
    r.elapsed

let fib_cmd =
  let n_t = Arg.(value & opt int 15 & info [ "n" ] ~docv:"N" ~doc:"Input.") in
  Cmd.v
    (Cmd.info "fib" ~doc:"Fork-join Fibonacci over selective reception.")
    Term.(
      const fib $ n_t $ nodes_t $ naive_t $ stock_t $ placement_t $ interrupt_t
      $ seed_t)

(* --- sieve --- *)

let sieve limit nodes naive stock placement interrupt seed =
  let rt_config, machine_config = configs naive stock placement interrupt seed in
  let r = Apps.Sieve.run ~machine_config ~rt_config ~nodes ~limit () in
  Format.printf "primes <= %d: %d (largest %d), %d filter objects, %a@." limit
    r.Apps.Sieve.primes r.largest r.filters_created Simcore.Time.pp r.elapsed

let sieve_cmd =
  let limit_t =
    Arg.(value & opt int 500 & info [ "limit" ] ~docv:"N" ~doc:"Sieve bound.")
  in
  Cmd.v
    (Cmd.info "sieve" ~doc:"Prime sieve over a growing pipeline of objects.")
    Term.(
      const sieve $ limit_t $ nodes_t $ naive_t $ stock_t $ placement_t
      $ interrupt_t $ seed_t)

(* --- microbench --- *)

let micro interrupt seed =
  let machine_config =
    {
      Machine.Engine.default_config with
      Machine.Engine.delivery =
        (if interrupt then Machine.Engine.Interrupt else Machine.Engine.Polling);
      seed;
    }
  in
  let m = Apps.Microbench.measure ~machine_config () in
  Format.printf "%a@." Apps.Microbench.pp m

let micro_cmd =
  Cmd.v
    (Cmd.info "microbench" ~doc:"Costs of basic operations (paper Table 1).")
    Term.(const micro $ interrupt_t $ seed_t)

(* --- gc survey --- *)

let survey n nodes seed =
  let machine_config = { Machine.Engine.default_config with Machine.Engine.seed } in
  let cls = Apps.Nqueens_par.solver_cls () in
  let sys = Core.System.boot ~machine_config ~nodes ~classes:[ cls ] () in
  let root =
    Core.System.create_root sys ~node:0 cls
      [
        Core.Value.int n;
        Core.Value.int Apps.Queens_board.empty_packed;
        Core.Value.unit;
      ]
  in
  Core.System.send_boot sys root (Core.Pattern.intern "expand" ~arity:0) [];
  Core.System.run sys;
  Format.printf "%a@." Services.Gc_analysis.pp_report
    (Services.Gc_analysis.survey sys);
  dump_stats sys

let survey_cmd =
  let n_t = Arg.(value & opt int 8 & info [ "n" ] ~docv:"N" ~doc:"Board size.") in
  Cmd.v
    (Cmd.info "survey"
       ~doc:"Run N-queens, then report the GC export analysis and statistics.")
    Term.(const survey $ n_t $ nodes_t $ seed_t)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "abcl-sim" ~version:"1.0.0"
      ~doc:
        "Concurrent object-oriented runtime on a simulated stock \
         multicomputer (PPoPP'93 reproduction)."
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [ nqueens_cmd; ring_cmd; fib_cmd; sieve_cmd; micro_cmd; survey_cmd ]))
