(* The benchmark's own tests: every output check must fire on a sabotaged
   expectation or a sabotaged run, and stay quiet on a healthy one. The
   KV workloads run through the benchmark's own code at a reduced request
   count; queens' count check is fed a small search's real counts. *)

open Perfbench
module System = Core.System

let failures = ref 0

let expect name ~fires problems =
  let fired = problems <> [] in
  if fired = fires then Printf.printf "ok   %s\n" name
  else begin
    incr failures;
    Printf.printf "FAIL %s: expected the check %s, got [%s]\n" name
      (if fires then "to fire" else "to stay quiet")
      (String.concat "; " problems)
  end

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p
let only p problems = List.filter (has_prefix p) problems

let requests = 2_000

(* A run to quiescence at the reduced size. *)
let full ?(seed = 1) w =
  let live = Workload.prepare ~requests w ~seed in
  live.run Span.off;
  (live, live.finish Span.off)

(* A run stopped long before quiescence: requests still pending, messages
   still buffered or unacknowledged. *)
let cut_short w =
  let live = Workload.prepare ~requests w ~seed:1 in
  (try System.run ~max_slices:300 live.sys with Failure _ -> ());
  live.finish Span.off

(* Two nodes: a holder on node 0 creates a cell on node 1 and keeps its
   address, so node 0 holds a stub for it. *)
let dgc_holder () =
  let open Core in
  let p_poke = Pattern.intern "perfbench_poke" ~arity:1 in
  let p_spawn = Pattern.intern "perfbench_spawn" ~arity:0 in
  let cell =
    Class_def.define ~name:"perfbench_cell" ~state:[| "v" |]
      ~init:(fun _ -> [| Value.int 0 |])
      ~methods:[ (p_poke, fun ctx msg -> Ctx.set ctx 0 (Message.arg msg 0)) ]
      ()
  in
  let holder =
    Class_def.define ~name:"perfbench_holder" ~state:[| "ref" |]
      ~init:(fun _ -> [| Value.unit |])
      ~methods:
        [
          ( p_spawn,
            fun ctx _ ->
              let a = Ctx.create_on ctx ~target:1 cell [] in
              Ctx.send ctx a p_poke [ Value.int 42 ];
              Ctx.set ctx 0 (Value.Addr a) );
        ]
      ()
  in
  let sys = System.boot ~nodes:2 ~classes:[ cell; holder ] () in
  let g = Dgc.attach sys in
  let h = System.create_root sys ~node:0 holder [] in
  System.send_boot sys h p_spawn [];
  System.run sys;
  Dgc.settle g;
  let canon =
    match System.lookup_obj sys h with
    | Some { Kernel.state = [| Value.Addr a |]; _ } -> a
    | _ -> failwith "holder kept no reference"
  in
  (g, canon)

let () =
  (* queens: solution and remote-creation counts. *)
  let result, sys = Apps.Nqueens_par.run_sys ~nodes:4 ~n:6 () in
  let remote = Simcore.Stats.get (System.stats sys) "create.remote" in
  let real =
    { Checks.solutions = result.solutions; remote_creations = remote }
  in
  let check expect =
    Checks.queens ~expect ~solutions:result.solutions ~remote_creations:remote
  in
  expect "queens counts, true expectation" ~fires:false (check real);
  expect "queens solutions, sabotaged" ~fires:true
    (check { real with solutions = real.solutions + 1 });
  expect "queens remote creations, sabotaged" ~fires:true
    (check { real with remote_creations = real.remote_creations - 1 });
  (* Loadgen.audit. *)
  let _, healthy = full Workload.Kv_open in
  expect "kv_open healthy run" ~fires:false healthy.problems;
  expect "Loadgen.audit on a cut-short run" ~fires:true
    (only "audit:" (cut_short Workload.Kv_open).problems);
  (* Reliable in-flight and Diagnostics.is_clean on the hostile
     configuration, where a cut-short run leaves frames unacknowledged. *)
  let _, hostile = full Workload.Kv_hostile in
  expect "kv_hostile healthy run" ~fires:false hostile.problems;
  let stopped = cut_short Workload.Kv_hostile in
  expect "reliable in flight on a cut-short run" ~fires:true
    (only "reliable" stopped.problems);
  expect "Diagnostics.is_clean on a cut-short run" ~fires:true
    (only "diagnostics" stopped.problems);
  (* Dgc.audit: the KV tier frees every stub by quiescence, so a holder
     object keeps one remote reference alive; forging that stub's weight
     must break conservation. *)
  let g, canon = dgc_holder () in
  expect "Dgc.audit, healthy" ~fires:false (Checks.audits (Dgc.audit g));
  let node = if Dgc.has_stub g ~node:0 ~canon then 0 else 1 in
  Dgc.Testing.forge_stub_weight g ~node ~canon 7;
  expect "Dgc.audit on a forged stub weight" ~fires:true
    (Checks.audits (Dgc.audit g));
  (* Digests across repeats. *)
  let digest seed = Workload.digest (snd (full ~seed Workload.Kv_open)) in
  let d1 = digest 1 in
  expect "digests of two repeats" ~fires:false
    (Checks.digests [ d1; digest 1 ]);
  expect "digests, repeat sabotaged with another seed" ~fires:true
    (Checks.digests [ d1; digest 2 ]);
  if !failures > 0 then exit 1
