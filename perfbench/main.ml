(* The simulator benchmark (see README.md).

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 it repeats the workload, fresh each time, until S
   seconds of host time are spent (at least three repeats), and prints
   the end-to-end metrics: medians of host cost over the repeats, and
   the modelled (virtual-time) metrics, which every repeat must
   reproduce exactly. With --trace 1 it makes one untraced reference
   run, one traced run (spans, GC deltas, Stats counters, Timeline
   hash), the extra runs the per-layer metrics need, and the layer
   ledger, and prints the per-layer metrics. Both modes write their
   detail to .perfbench_out/ and print one JSON object as the last line
   of stdout. Any failed output check makes the exit code nonzero. *)

open Perfbench
module Engine = Machine.Engine
module System = Core.System

type args = {
  workload : Workload.name;
  seed : int;
  seconds : float;
  trace : bool;
}

let usage =
  "usage: main.exe --workload (queens|kv_open|kv_hostile|kv_wide_par) --seed N \
   --seconds S --trace 0|1"

let out_dir = ".perfbench_out"

let parse argv =
  let flags = [ "--workload"; "--seed"; "--seconds"; "--trace" ] in
  let rec go acc = function
    | [] -> acc
    | k :: v :: rest when List.mem k flags && not (List.mem_assoc k acc) ->
        go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | _ -> failwith usage
  in
  let kv = go [] (List.tl (Array.to_list argv)) in
  let get k =
    match List.assoc_opt k kv with Some v -> v | None -> failwith usage
  in
  let workload =
    match Workload.of_string (get "workload") with
    | Some w -> w
    | None -> failwith usage
  in
  {
    workload;
    seed =
      (match int_of_string_opt (get "seed") with
      | Some n -> n
      | None -> failwith usage);
    seconds =
      (match float_of_string_opt (get "seconds") with
      | Some s when s > 0. -> s
      | _ -> failwith usage);
    trace =
      (match get "trace" with "0" -> false | "1" -> true | _ -> failwith usage);
  }

(* Host clock, seconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9
let minor_words () = (Gc.quick_stat ()).Gc.minor_words

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> find ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) find in
  float_of_int kb /. 1024.

(* Table 1 of the paper, in us: intra-node message to a dormant object,
   to an active object, local creation, inter-node latency. *)
let model_err_pct () =
  let m = Apps.Microbench.measure () in
  List.fold_left
    (fun acc (ns, paper_us) ->
      Float.max acc (Float.abs ((ns /. 1000.) -. paper_us) /. paper_us *. 100.))
    0.
    [
      (m.intra_dormant_ns, 2.3);
      (m.intra_active_ns, 9.6);
      (m.intra_create_ns, 2.1);
      (m.inter_latency_ns, 8.9);
    ]

(* ---- one repetition ---------------------------------------------- *)

type rep = {
  setup_s : float;
  wall_s : float;
  alloc_words : float;
  cpu_s : float;  (** process user + system CPU seconds during the run *)
  outcome : Workload.outcome;
  events : int;
}

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* A fresh system, prepared and run to quiescence with tracing off. The
   heap is collected first so each repeat starts from the same state. *)
let rep ?domains ?observer w ~seed =
  Gc.full_major ();
  let t0 = now () in
  let live = Workload.prepare ?domains ?observer w ~seed in
  let t1 = now () in
  let m0 = minor_words () and c0 = cpu_seconds () in
  live.run Span.off;
  let t2 = now () in
  let m1 = minor_words () and c1 = cpu_seconds () in
  let outcome = live.finish Span.off in
  {
    setup_s = t1 -. t0;
    wall_s = t2 -. t1;
    alloc_words = m1 -. m0;
    cpu_s = c1 -. c0;
    outcome;
    events = Engine.events_processed (System.machine live.sys);
  }

(* ---- output ------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith "metric is not a finite number"

let json_string s = Printf.sprintf "%S" s

let metrics_json ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
             (json_string x.name) (json_number x.value) (json_string x.unit_))
         ms)
  ^ "}"

let write_file path s =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let detail_file a kind =
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Filename.concat out_dir
    (Printf.sprintf "%s-%s-seed%d.json" kind
       (Workload.to_string a.workload)
       a.seed)

let print_metrics ms =
  List.iter
    (fun x -> Printf.printf "  %-44s %16.6f %s\n" x.name x.value x.unit_)
    ms

(* Prints the problems, the human-readable metric table, and the final
   JSON line; returns the exit code. *)
let finish ~problems ~attempted ~failed ms ~detail =
  List.iter (fun p -> Printf.eprintf "CHECK FAILED: %s\n" p) problems;
  print_metrics ms;
  let correct = problems = [] in
  Printf.printf "detail written to %s\n" detail;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!"
    correct attempted failed (metrics_json ms);
  if correct then 0 else 1

(* ---- untraced: end-to-end metrics ---------------------------------- *)

(* Set-up alone is sampled [setup_per_rep] times before every repeat, so
   its samples spread over the whole run like the repeats do. *)
let setup_per_rep = 5
let min_reps = 3

let virt_metrics (o : Workload.outcome) =
  let units = [| "ms"; "x"; "us"; "us"; "us"; "1/s" |] in
  Array.to_list
    (Array.mapi (fun i name -> m name units.(i) o.virt.(i)) Workload.virt_names)

let untraced a =
  let w = a.workload and seed = a.seed in
  (* Warm-up: lazy initialisation (pattern tables, the sequential queens
     baseline) is paid once per process, not per repeat. *)
  ignore (Workload.prepare w ~seed);
  let setups = ref [] in
  let sample () =
    for _ = 1 to setup_per_rep do
      let t0 = now () in
      ignore (Workload.prepare w ~seed);
      setups := (now () -. t0) :: !setups
    done;
    rep w ~seed
  in
  let t_start = now () in
  (* Peak RSS is read after the first repeat: the high-water mark of a
     process that has run the workload once. Later repeats reuse the
     heap but could only add allocator noise to it. *)
  let first = sample () in
  let peak_rss = peak_rss_mb () in
  let rec loop acc n =
    let spent = now () -. t_start in
    let next = spent *. float_of_int (n + 1) /. float_of_int n in
    if n >= min_reps && next > a.seconds then List.rev acc
    else loop (sample () :: acc) (n + 1)
  in
  let reps = first :: loop [] 1 in
  let setups = !setups @ List.map (fun r -> r.setup_s) reps in
  let digests = List.map (fun r -> Workload.digest r.outcome) reps in
  let problems =
    List.concat_map (fun r -> r.outcome.Workload.problems) reps
    @ Checks.digests digests
  in
  let attempted = List.fold_left (fun s r -> s + r.outcome.attempted) 0 reps in
  let failed = List.fold_left (fun s r -> s + r.outcome.failed) 0 reps in
  let ok_frac = 1. -. (float_of_int failed /. float_of_int (max 1 attempted)) in
  let ms =
    [
      m "wall_s" "s" (median (List.map (fun r -> r.wall_s) reps));
      m "setup_s" "s" (median setups);
      m "alloc_mwords" "Mwords"
        (median (List.map (fun r -> r.alloc_words /. 1e6) reps));
      m "peak_rss_mb" "MB" peak_rss;
    ]
    @ virt_metrics first.outcome
    @ [ m "model_err_pct" "%" (model_err_pct ()); m "ok_frac" "ratio" ok_frac ]
  in
  let detail = detail_file a "e2e" in
  write_file detail
    (Printf.sprintf
       "{\"workload\": %s, \"seed\": %d, \"repeats\": %d, \"digest\": %s, \
        \"events\": %d, \"wall_s\": [%s], \"setup_s\": [%s], \"metrics\": %s}\n"
       (json_string (Workload.to_string w))
       seed (List.length reps)
       (json_string (List.hd digests))
       first.events
       (String.concat ", " (List.map (fun r -> json_number r.wall_s) reps))
       (String.concat ", " (List.map json_number setups))
       (metrics_json ms));
  Printf.printf "workload %s seed %d: %d repeats, %d events each, digest %s\n"
    (Workload.to_string w) seed (List.length reps) first.events
    (List.hd digests);
  finish ~problems ~attempted ~failed ms ~detail

(* ---- traced: per-layer metrics ------------------------------------- *)

let counter (o : Workload.outcome) k =
  float_of_int (Option.value (List.assoc_opt k o.counters) ~default:0)

(* Sum of the scheduler's per-origin counters with the given suffix, over
   local sends and remote receptions. *)
let origin (o : Workload.outcome) suffix =
  counter o ("send.local." ^ suffix) +. counter o ("recv.remote." ^ suffix)

let ratio a b = if b = 0. then 0. else a /. b

let quantile h q =
  Option.value (Simcore.Histogram.quantile h q) ~default:0.

(* Host ns between consecutive slice callbacks of a sequential run. *)
let slice_timing w ~seed =
  let h = Simcore.Histogram.create ~bucket_width:20 () in
  let last = ref 0L in
  let observer = function
    | Engine.Obs_slice _ ->
        let t = Monotonic_clock.now () in
        if !last <> 0L then
          Simcore.Histogram.observe h (Int64.to_int (Int64.sub t !last));
        last := t
    | _ -> ()
  in
  let r = rep ~observer w ~seed in
  (r, quantile h 0.5, quantile h 0.99)

let layer_metrics (o : Workload.outcome) (machine : Engine.t) =
  let packets = float_of_int (Engine.packets_sent machine) in
  let bytes = float_of_int (Engine.bytes_sent machine) in
  let c = counter o in
  let dormant = origin o "dormant" +. origin o "inlined" in
  let active = origin o "active" in
  let dispatched =
    List.fold_left
      (fun s k -> s +. origin o k)
      0.
      [
        "dormant";
        "inlined";
        "active";
        "fault";
        "restore";
        "naive_buffered";
        "depth_limited";
      ]
  in
  let coal = Engine.coalesce_stats machine in
  let batches, singles, frames =
    match coal with
    | Some s ->
        ( float_of_int s.s_batches,
          float_of_int s.s_singles,
          float_of_int s.s_frames )
    | None -> (0., 0., 0.)
  in
  let app k = float_of_int (Option.value (List.assoc_opt k o.app) ~default:0) in
  [
    m "fabric.packets" "count" packets;
    m "fabric.bytes" "bytes" bytes;
    m "fabric.bytes_per_packet" "bytes" (ratio bytes packets);
    m "faults.drops" "count" (float_of_int (Engine.packets_dropped machine));
    m "faults.dups" "count" (float_of_int (Engine.packets_duplicated machine));
    m "sched.dormant" "count" dormant;
    m "sched.active" "count" active;
    m "sched.dormant_ratio" "ratio" (ratio dormant dispatched);
    m "sched.preempt" "count" (c "preempt");
    m "create.remote" "count" (c "create.remote");
    m "create.chunk_stall_ratio" "ratio"
      (ratio (c "chunk.stall") (c "create.remote"));
    m "multiactive.admit" "count" (c "ma.admit");
    m "multiactive.overlap" "count" (c "ma.overlap");
    m "multiactive.queued" "count" (c "ma.queued");
    m "reliable.acks" "count" (c "reliable.ack");
    m "reliable.retransmits" "count" (c "reliable.retransmit");
    m "reliable.dup_discards" "count" (c "reliable.dup_discard");
    m "reliable.useful_ratio" "ratio"
      (if packets = 0. then 1.
       else
         1.
         -. ((c "reliable.retransmit" +. c "reliable.dup_discard") /. packets));
    m "coalesce.batches" "count" batches;
    m "coalesce.singles" "count" singles;
    m "coalesce.frames_per_batch" "frames" (ratio frames batches);
    m "dgc.dec_msgs" "count" (c "dgc.dec.msgs");
    m "dgc.sweeps" "count" (c "dgc.sweeps");
    m "dgc.stubs_freed" "count" (c "dgc.stubs_freed");
    m "migrate.forwards" "count" (c "migrate.forward");
    m "migrate.colocated" "count" (c "migrate.colocated");
    m "loadgen.injected" "count" (app "loadgen.injected");
    m "kv.completed" "count" (app "kv.completed");
    m "kv.cas_fail" "count" (app "kv.cas_fail");
    m "fail_frac" "ratio"
      (ratio (float_of_int o.failed) (float_of_int o.attempted));
  ]

let span_phases = [ "boot"; "spawn"; "launch"; "run"; "settle"; "audit" ]

let span_metrics records =
  List.concat_map
    (fun phase ->
      let rs = List.filter (fun (r : Span.record) -> r.name = phase) records in
      let sum f = List.fold_left (fun s r -> s +. f r) 0. rs in
      [
        m (Printf.sprintf "span.%s_s" phase) "s"
          (sum (fun r -> r.end_s -. r.start_s));
        m (Printf.sprintf "span.%s.gc.minor_collections" phase) "count"
          (sum (fun r -> float_of_int r.minor_collections));
        m (Printf.sprintf "span.%s.gc.major_collections" phase) "count"
          (sum (fun r -> float_of_int r.major_collections));
        m (Printf.sprintf "span.%s.gc.promoted_mwords" phase) "Mwords"
          (sum (fun r -> r.promoted_words /. 1e6));
        m (Printf.sprintf "span.%s.gc.pause_ms" phase) "ms"
          (sum (fun r -> float_of_int r.pause_ns /. 1e6));
      ])
    span_phases

let span_json (r : Span.record) =
  Printf.sprintf
    "{\"name\": %s, \"parent\": %s, \"start_s\": %s, \"end_s\": %s, \
     \"minor_collections\": %d, \"major_collections\": %d, \
     \"promoted_words\": %s, \"pause_ns\": %d}"
    (json_string r.name)
    (match r.parent with Some p -> json_string p | None -> "null")
    (json_number r.start_s) (json_number r.end_s) r.minor_collections
    r.major_collections (json_number r.promoted_words) r.pause_ns

let traced a =
  let w = a.workload and seed = a.seed in
  let domains = Workload.domains w in
  let t_start = now () in
  ignore (Workload.prepare w ~seed);
  (* 0. kv_wide_par: its input on the sequential engine, first, so that
        the process's peak RSS at this point is the sequential run's. *)
  let seq =
    if domains > 1 then
      let r = rep ~domains:1 w ~seed in
      Some (r, peak_rss_mb ())
    else None
  in
  (* 1. Untraced reference: the base of trace.overhead_pct and of the
        host cost per event. *)
  let base = rep w ~seed in
  (* 2. The traced run: spans around every layer call, the Timeline on
        the engine's observer, GC pauses from Runtime_events. *)
  Gc.full_major ();
  let tr = Span.tracer () in
  let sp = Span.spans tr in
  let live, traced_outcome =
    sp.span (Workload.to_string w) (fun () ->
        let live = Workload.prepare ~sp ~timeline:true w ~seed in
        live.run sp;
        (live, live.finish sp))
  in
  Span.stop tr;
  let records = Span.records tr in
  let machine = System.machine live.sys in
  let timeline_hash =
    match live.timeline with Some t -> Services.Timeline.hash t | None -> 0
  in
  let traced_run_s =
    List.fold_left
      (fun s (r : Span.record) ->
        if r.name = "run" || r.name = "settle" then s +. (r.end_s -. r.start_s)
        else s)
      0. records
  in
  (* 3. Sequential workloads: host time between slice callbacks.
     kv_wide_par: the Timeline hash of its input on the sequential
     engine. *)
  let slice_p50, slice_p99, seq_hash, extra_reps =
    match seq with
    | None ->
        let r, p50, p99 = slice_timing w ~seed in
        (p50, p99, None, [ r ])
    | Some _ ->
        let tl = Workload.prepare ~domains:1 ~timeline:true w ~seed in
        tl.run Span.off;
        ignore (tl.finish Span.off);
        (0., 0., Option.map Services.Timeline.hash tl.timeline, [])
  in
  let seq_wall, seq_rss =
    match seq with Some (r, rss) -> (r.wall_s, rss) | None -> (0., 0.)
  in
  (* 4. The layer ledger, with the time left over, at least 0.1 s/row. *)
  let left = a.seconds -. (now () -. t_start) in
  let quota =
    Float.max 0.1 (left /. float_of_int (List.length Ledger.rows) /. 1.5)
  in
  let ledger = Ledger.measure ~quota in
  let events = float_of_int base.events in
  let ms =
    [
      m "engine.events" "count" events;
      m "engine.host_ns_per_event" "ns" (base.wall_s *. 1e9 /. events);
      m "engine.words_per_event" "words" (base.alloc_words /. events);
      m "engine.slice_host_ns_p50" "ns" slice_p50;
      m "engine.slice_host_ns_p99" "ns" slice_p99;
      m "parallel.cpu_util" "ratio"
        (if domains > 1 then
           base.cpu_s /. (base.wall_s *. float_of_int domains)
         else 0.);
      m "parallel.seq_wall_s" "s" seq_wall;
      m "parallel.seq_peak_rss_mb" "MB" seq_rss;
      m "parallel.speedup" "x"
        (if domains > 1 then seq_wall /. base.wall_s else 0.);
    ]
    @ layer_metrics traced_outcome machine
    @ span_metrics records
    @ [
        m "trace.overhead_pct" "%"
          ((traced_run_s -. base.wall_s) /. base.wall_s *. 100.);
      ]
    @ List.concat_map
        (fun (r : Ledger.row) ->
          [
            m (r.name ^ ".ns_per_op") "ns" r.ns_per_op;
            m (r.name ^ ".words_per_op") "words" r.words_per_op;
          ])
        ledger
  in
  (* Every untraced run of this seed simulates one computation; queens'
     traced run has no slice completion times (the Timeline holds the
     observer),
     so only complete outcomes enter the comparison. *)
  let comparable =
    List.filter
      (fun (o : Workload.outcome) -> Array.for_all Float.is_finite o.virt)
      (base.outcome :: traced_outcome
      :: List.map (fun r -> r.outcome) extra_reps)
  in
  let digests = List.map Workload.digest comparable in
  let problems =
    base.outcome.problems @ traced_outcome.problems
    @ List.concat_map (fun r -> r.outcome.Workload.problems) extra_reps
    @ Checks.digests digests
  in
  if Span.lost_events tr > 0 then
    Printf.eprintf "warning: %d runtime events lost; gc.pause_ms undercounts\n"
      (Span.lost_events tr);
  let detail = detail_file a "trace" in
  write_file detail
    (Printf.sprintf
       "{\"workload\": %s, \"seed\": %d, \"digest\": %s, \
        \"timeline_hash\": %s, \"seq_timeline_hash\": %s, \"spans\": [%s], \
        \"counters\": {%s}, \"metrics\": %s}\n"
       (json_string (Workload.to_string w))
       seed
       (json_string (List.hd digests))
       (json_string (Printf.sprintf "%016x" timeline_hash))
       (match seq_hash with
       | Some h -> json_string (Printf.sprintf "%016x" h)
       | None -> "null")
       (String.concat ", " (List.map span_json records))
       (String.concat ", "
          (List.map
             (fun (k, v) -> Printf.sprintf "%s: %d" (json_string k) v)
             traced_outcome.counters))
       (metrics_json ms));
  Printf.printf "workload %s seed %d: timeline hash %016x%s, digest %s\n"
    (Workload.to_string w) seed timeline_hash
    (match seq_hash with
    | Some h -> Printf.sprintf " (sequential engine: %016x)" h
    | None -> "")
    (List.hd digests);
  finish ~problems ~attempted:traced_outcome.attempted
    ~failed:traced_outcome.failed ms ~detail

let () =
  match parse Sys.argv with
  | exception Failure msg ->
      prerr_endline msg;
      exit 2
  | a -> exit (if a.trace then traced a else untraced a)
