(* Pinned computations: the sequential Timeline hash and a digest of
   every Stats counter for two small, fixed runs. A change that only
   speeds up the simulator must leave both untouched; a change to the
   modelled runtime moves them, and must update the pins on purpose. *)

open Core
module Kv = Apps.Kv_store
module Loadgen = Traffic.Loadgen

let stats_digest sys =
  Simcore.Stats.to_alist (System.stats sys)
  |> List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v)
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

(* Runs [sys] to quiescence on the sequential engine with a Timeline
   attached; returns the Timeline hash and the counter digest. *)
let pinned_run sys =
  let tl = Services.Timeline.attach sys in
  System.run sys;
  let h = Services.Timeline.hash tl in
  Services.Timeline.detach tl;
  Alcotest.(check bool)
    "quiescent and clean" true
    (Diagnostics.is_clean (Diagnostics.survey sys));
  (h, stats_digest sys)

let queens () =
  let cls = Apps.Nqueens_par.solver_cls () in
  let sys = System.boot ~nodes:16 ~classes:[ cls ] () in
  let root =
    System.create_root sys ~node:0 cls
      [ Value.int 8; Value.int Apps.Queens_board.empty_packed; Value.unit ]
  in
  System.send_boot sys root (Pattern.intern "expand" ~arity:0) [];
  let h, d = pinned_run sys in
  let solutions =
    Value.to_int (Option.get (System.lookup_obj sys root)).Kernel.state.(4)
  in
  (solutions, h, d)

let kv_open () =
  let kv = Kv.create ~shards:4 ~keys_per_shard:16 ~mget_fan:3 () in
  let sys = System.boot ~nodes:4 ~classes:(Kv.classes kv) () in
  Kv.spawn kv sys;
  let lg =
    Loadgen.launch
      { Loadgen.default_config with seed = 3; rate_rps = 40_000; requests = 2_000 }
      sys kv
  in
  let h, d = pinned_run sys in
  Alcotest.(check (list string)) "load generator audit" [] (Loadgen.audit lg sys);
  (Loadgen.injected lg, h, d)

let test_queens () =
  let solutions, h, d = queens () in
  Alcotest.(check int) "8-queens solutions" 92 solutions;
  Alcotest.(check int) "Timeline hash" 2012462384412750683 h;
  Alcotest.(check string) "Stats digest" "a587daad973bb68dad2a19fbe4eedc28" d

let test_kv_open () =
  let injected, h, d = kv_open () in
  Alcotest.(check int) "requests injected" 2_000 injected;
  Alcotest.(check int) "Timeline hash" (-3780480414659691699) h;
  Alcotest.(check string) "Stats digest" "75447a07b4221c9bd1db9847d15add85" d

let () =
  Alcotest.run "pinned"
    [
      ( "same computation",
        [
          Alcotest.test_case "queens 8 on 16 nodes" `Quick test_queens;
          Alcotest.test_case "kv open loop" `Quick test_kv_open;
        ] );
    ]
