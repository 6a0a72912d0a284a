(* The four benchmark workloads, built only from the public entry points
   of each layer. A workload is prepared (boot, spawn, launch), run to
   quiescence (engine run, DGC settle) and finished (audits, modelled
   metrics); the bench times those phases from outside. *)

open Core
module Engine = Machine.Engine
module Kv = Apps.Kv_store
module Loadgen = Traffic.Loadgen

type name = Queens | Kv_open | Kv_hostile | Kv_wide_par

let names =
  [
    ("queens", Queens);
    ("kv_open", Kv_open);
    ("kv_hostile", Kv_hostile);
    ("kv_wide_par", Kv_wide_par);
  ]

let to_string n = fst (List.find (fun (_, m) -> m = n) names)
let of_string s = List.assoc_opt s names

(* The closed queens computation: Fig. 5 at default scale. *)
let queens_n = 11
let queens_nodes = 64

type kv_params = {
  nodes : int;
  shards : int;
  rate_rps : int;
  requests : int;
  multiactive : bool;
  hostile : bool;  (** fault plan, crash window, coalescing, DGC, moves *)
  sharded : bool;  (** one arrival chain per node *)
  domains : int;  (** 1 runs [System.run], more runs [System.run_parallel] *)
}

let kv_params = function
  | Queens -> invalid_arg "Workload.kv_params: queens is not a KV workload"
  | Kv_open ->
      {
        nodes = 8;
        shards = 8;
        rate_rps = 60_000;
        requests = 300_000;
        multiactive = false;
        hostile = false;
        sharded = false;
        domains = 1;
      }
  | Kv_hostile ->
      {
        nodes = 8;
        shards = 8;
        rate_rps = 30_000;
        requests = 100_000;
        multiactive = true;
        hostile = true;
        sharded = false;
        domains = 1;
      }
  | Kv_wide_par ->
      {
        nodes = 64;
        shards = 64;
        rate_rps = 480_000;
        requests = 300_000;
        multiactive = false;
        hostile = false;
        sharded = true;
        domains = 2;
      }

let domains = function Queens -> 1 | w -> (kv_params w).domains

(* kv_hostile's fault plan: 1.5% drop, 2% duplication, 1 us jitter and
   one crash window on a shard-hosting node; plus two forced shard moves.
   At 5% drop the latency tail is set by a few retransmission-backoff
   episodes per run, and p999 swings by 2-7x from seed to seed; at 1.5%
   p999 falls inside one retransmission mode and stays within a few
   percent. *)
let hostile_plan ~seed =
  Network.Faults.plan ~seed ~drop:0.015 ~duplicate:0.02 ~jitter_ns:1_000
    ~crashes:
      [ { Network.Faults.node = 1; from_ns = 100_000; until_ns = 180_000 } ]
    ()

let hostile_moves = [ (60_000, 1, 5); (200_000, 2, 0) ]

(* What a finished run reports. [virt] holds the modelled metrics in the
   order of [virt_names]; a value is [nan] when the run could not measure
   it (queens' work completion times while the Timeline owns the
   observer). *)
type outcome = {
  attempted : int;
  failed : int;
  problems : string list;
  virt : float array;
  counters : (string * int) list;  (** [Stats.to_alist] at quiescence *)
  app : (string * int) list;  (** load generator and KV tier counters *)
}

let virt_names =
  [|
    "virt_elapsed_ms";
    "virt_speedup";
    "virt_p50_us";
    "virt_p99_us";
    "virt_p999_us";
    "virt_goodput_rps";
  |]

type live = {
  sys : System.t;
  run : Span.spans -> unit;
  finish : Span.spans -> outcome;
  timeline : Services.Timeline.t option;
  dgc : Dgc.t option;
  kv : Kv.t option;
}

let quantiles_us h =
  let q p =
    match Simcore.Histogram.quantile h p with
    | Some v -> v /. 1000.
    | None -> nan
  in
  (q 0.5, q 0.99, q 0.999)

(* Busy time by completion instant, in 1 us buckets: a slice's work
   counts as done at the slice's end. *)
module Work_done = struct
  type t = { mutable buckets : float array; mutable total : float }

  let width_ns = 1_000
  let create () = { buckets = Array.make 4096 0.; total = 0. }

  let add t ~t_end ~work =
    let i = t_end / width_ns in
    if i >= Array.length t.buckets then begin
      let b = Array.make (max (i + 1) (2 * Array.length t.buckets)) 0. in
      Array.blit t.buckets 0 b 0 (Array.length t.buckets);
      t.buckets <- b
    end;
    t.buckets.(i) <- t.buckets.(i) +. float_of_int work;
    t.total <- t.total +. float_of_int work

  (* The end of the first bucket at which the completed share reaches
     [q], in ns. *)
  let quantile t q =
    let target = q *. t.total in
    let rec go i acc =
      let acc = acc +. t.buckets.(i) in
      if acc >= target || i = Array.length t.buckets - 1 then
        float_of_int ((i + 1) * width_ns)
      else go (i + 1) acc
    in
    if t.total = 0. then nan else go 0 0.
end

let elapsed_s sys = float_of_int (System.elapsed sys) /. 1e9

(* Installs the observer hooks a run asks for. The Timeline and an
   observer callback are exclusive: the engine holds one observer. *)
let observe sys ~timeline ~observer =
  let machine = System.machine sys in
  if timeline then Some (Services.Timeline.attach sys)
  else begin
    Option.iter (fun f -> Engine.set_observer machine (Some f)) observer;
    None
  end

let engine_run sys ~domains =
  if domains > 1 then System.run_parallel sys ~domains else System.run sys

let seq_time =
  lazy
    (Apps.Nqueens_seq.modeled_time Machine.Cost_model.default
       (Apps.Nqueens_seq.solve ~n:queens_n))

(* Queens mirrors [Apps.Nqueens_par.run_sys] step by step so boot and
   root creation can be timed apart from the run. The seed picks the node
   the root starts on, among nodes 0-7: the same search started
   elsewhere on the torus, so the solution count stays fixed while the
   modelled times and the remote-creation count move a little. *)
let queens_root ~seed =
  let r = seed mod Checks.queens_roots in
  if r < 0 then r + Checks.queens_roots else r

let prepare_queens (sp : Span.spans) ~seed ~timeline ~observer =
  let root_node = queens_root ~seed in
  let expect = Checks.expect ~root:root_node in
  let cls = Apps.Nqueens_par.solver_cls () in
  let sys =
    sp.span "boot" (fun () ->
        System.boot ~nodes:queens_nodes ~classes:[ cls ] ())
  in
  (* Queens has no requests: all its work is due when the search is
     launched at time 0. Its latency percentiles are the modelled times
     by which that share of the search's busy time had completed. *)
  let done_work = Work_done.create () in
  let observer =
    Some
      (fun (o : Engine.observation) ->
        (match o with
        | Obs_slice { t_start; t_end; _ } ->
            Work_done.add done_work ~t_end ~work:(t_end - t_start)
        | _ -> ());
        Option.iter (fun f -> f o) observer)
  in
  let tl = observe sys ~timeline ~observer in
  let root =
    sp.span "spawn" (fun () ->
        System.create_root sys ~node:root_node cls
          [
            Value.int queens_n;
            Value.int Apps.Queens_board.empty_packed;
            Value.unit;
          ])
  in
  sp.span "launch" (fun () ->
      System.send_boot sys root (Pattern.intern "expand" ~arity:0) []);
  let run (sp : Span.spans) = sp.span "run" (fun () -> System.run sys) in
  let finish (sp : Span.spans) =
    sp.span "audit" (fun () ->
        let stats = System.stats sys in
        let solutions =
          match System.lookup_obj sys root with
          | Some o -> Value.to_int o.Kernel.state.(4)
          | None -> -1
        in
        let remote = Simcore.Stats.get stats "create.remote" in
        let created = Apps.Nqueens_par.creation_count stats in
        let report = Diagnostics.survey sys in
        let problems =
          Checks.queens ~expect ~solutions ~remote_creations:remote
          @ Checks.diagnostics report
        in
        let p50, p99, p999 =
          if timeline then (nan, nan, nan)
          else
            let q p = Work_done.quantile done_work p /. 1000. in
            (q 0.5, q 0.99, q 0.999)
        in
        let elapsed = System.elapsed sys in
        {
          attempted = 1;
          failed = (if problems = [] then 0 else 1);
          problems;
          virt =
            [|
              float_of_int elapsed /. 1e6;
              float_of_int (Lazy.force seq_time) /. float_of_int elapsed;
              p50;
              p99;
              p999;
              float_of_int created /. elapsed_s sys;
            |];
          counters = Simcore.Stats.to_alist stats;
          app = [];
        })
  in
  { sys; run; finish; timeline = tl; dgc = None; kv = None }

let prepare_kv (sp : Span.spans) w ?requests ~seed ~domains ~timeline ~observer
    () =
  let p = kv_params w in
  let p = { p with requests = Option.value requests ~default:p.requests } in
  let machine_config =
    if p.hostile then
      {
        Engine.default_config with
        Engine.faults = Some (hostile_plan ~seed);
        coalesce = Some Machine.Coalesce.default_config;
      }
    else Engine.default_config
  in
  let kv =
    Kv.create ~shards:p.shards ~keys_per_shard:16 ~mget_fan:3
      ~multiactive:p.multiactive ~ma_budget:4 ()
  in
  let sys =
    sp.span "boot" (fun () ->
        System.boot ~machine_config ~nodes:p.nodes ~classes:(Kv.classes kv) ())
  in
  let machine = System.machine sys in
  let tl = observe sys ~timeline ~observer in
  let dgc =
    sp.span "spawn" (fun () ->
        Kv.spawn kv sys;
        if p.hostile then begin
          let mig = Migrate.attach sys in
          List.iter
            (fun (time, shard, to_) ->
              Engine.schedule_at machine ~time (fun () ->
                  ignore
                    (Migrate.move mig ~canon:(Kv.shard_addr kv shard) ~to_)))
            hostile_moves;
          Some (Dgc.attach ~interval_ns:150_000 sys)
        end
        else None)
  in
  let lg =
    sp.span "launch" (fun () ->
        let cfg =
          {
            Loadgen.default_config with
            seed;
            rate_rps = p.rate_rps;
            requests = p.requests;
          }
        in
        (if p.sharded then Loadgen.launch_sharded else Loadgen.launch)
          cfg sys kv)
  in
  let run (sp : Span.spans) =
    sp.span "run" (fun () -> engine_run sys ~domains);
    sp.span "settle" (fun () -> Option.iter Dgc.settle dgc)
  in
  let finish (sp : Span.spans) =
    sp.span "audit" (fun () ->
        let audit =
          Loadgen.audit lg sys
          @ match dgc with Some g -> Dgc.audit g | None -> []
        in
        let in_flight = Engine.reliable_in_flight machine in
        let problems =
          Checks.audits audit
          @ Checks.diagnostics (Diagnostics.survey sys)
          @ Checks.in_flight in_flight
        in
        let st = Kv.stats kv in
        let p50, p99, p999 = quantiles_us st.Kv.latency in
        let attempted = Loadgen.injected lg in
        let failed = min attempted (Kv.pending kv + List.length problems) in
        let elapsed = System.elapsed sys in
        {
          attempted;
          failed;
          problems;
          virt =
            [|
              float_of_int elapsed /. 1e6;
              float_of_int (Engine.total_busy machine) /. float_of_int elapsed;
              p50;
              p99;
              p999;
              float_of_int (Kv.completed kv) /. elapsed_s sys;
            |];
          counters = Simcore.Stats.to_alist (System.stats sys);
          app =
            [
              ("loadgen.injected", attempted);
              ("kv.completed", Kv.completed kv);
              ("kv.cas_fail", st.Kv.cas_fail);
            ];
        })
  in
  { sys; run; finish; timeline = tl; dgc; kv = Some kv }

(* [domains] overrides the workload's own engine choice: the traced run
   replays kv_wide_par's input on the sequential engine with 1.
   [requests] shrinks a KV workload for the benchmark's own tests. *)
let prepare ?(sp = Span.off) ?domains ?requests ?(timeline = false) ?observer
    w ~seed =
  match w with
  | Queens -> prepare_queens sp ~seed ~timeline ~observer
  | Kv_open | Kv_hostile | Kv_wide_par ->
      let domains = Option.value domains ~default:(kv_params w).domains in
      prepare_kv sp w ?requests ~seed ~domains ~timeline ~observer ()

(* The simulated digest: a hash of every Stats counter plus the modelled
   metrics. Two runs with equal digests simulated the same computation. *)
let digest (o : outcome) =
  let b = Buffer.create 4096 in
  List.iter (fun (k, v) -> Printf.bprintf b "%s=%d;" k v) o.counters;
  Array.iter (fun v -> Printf.bprintf b "%h;" v) o.virt;
  Digest.to_hex (Digest.string (Buffer.contents b))
