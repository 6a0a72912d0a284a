(* Unit tests for the simulation substrate: event queue, clock, RNG,
   statistics, histogram, tracing. *)

module EQ = Simcore.Event_queue
module Clock = Simcore.Clock
module Rng = Simcore.Rng
module Stats = Simcore.Stats
module Histogram = Simcore.Histogram
module Time = Simcore.Time

let test_eq_ordering () =
  let q = EQ.create () in
  EQ.add q ~time:30 "c";
  EQ.add q ~time:10 "a";
  EQ.add q ~time:20 "b";
  Alcotest.(check (option (pair int string))) "pop a" (Some (10, "a")) (EQ.pop q);
  Alcotest.(check (option (pair int string))) "pop b" (Some (20, "b")) (EQ.pop q);
  Alcotest.(check (option (pair int string))) "pop c" (Some (30, "c")) (EQ.pop q);
  Alcotest.(check (option (pair int string))) "empty" None (EQ.pop q)

let test_eq_fifo_ties () =
  let q = EQ.create () in
  List.iter (fun s -> EQ.add q ~time:5 s) [ "x"; "y"; "z" ];
  let order = List.init 3 (fun _ -> snd (Option.get (EQ.pop q))) in
  Alcotest.(check (list string)) "insertion order on ties" [ "x"; "y"; "z" ] order

let test_eq_interleaved () =
  let q = EQ.create () in
  EQ.add q ~time:2 2;
  EQ.add q ~time:1 1;
  Alcotest.(check (option (pair int int))) "min" (Some (1, 1)) (EQ.pop q);
  EQ.add q ~time:0 0;
  Alcotest.(check (option (pair int int))) "new min" (Some (0, 0)) (EQ.pop q);
  Alcotest.(check (option int)) "peek" (Some 2) (EQ.peek_time q);
  Alcotest.(check int) "size" 1 (EQ.size q);
  EQ.clear q;
  Alcotest.(check bool) "cleared" true (EQ.is_empty q)

let test_eq_large_sorted () =
  let q = EQ.create () in
  let rng = Rng.create ~seed:7 in
  let times = List.init 1000 (fun _ -> Rng.int rng 10_000) in
  List.iter (fun t -> EQ.add q ~time:t ()) times;
  let rec drain acc =
    match EQ.pop q with Some (t, ()) -> drain (t :: acc) | None -> List.rev acc
  in
  let popped = drain [] in
  Alcotest.(check (list int)) "heap sorts" (List.sort compare times) popped

let test_clock () =
  let c = Clock.create () in
  Clock.advance_by c 100;
  Clock.advance_to c 50;
  Alcotest.(check int) "monotonic" 100 (Clock.now c);
  Clock.advance_to c 250;
  Alcotest.(check int) "advanced" 250 (Clock.now c);
  Alcotest.(check int) "busy counts only advance_by" 100 (Clock.busy_time c)

let test_rng_determinism () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  let sa = List.init 32 (fun _ -> Rng.int a 1000) in
  let sb = List.init 32 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" sa sb;
  let c = Rng.create ~seed:43 in
  let sc = List.init 32 (fun _ -> Rng.int c 1000) in
  Alcotest.(check bool) "different seed differs" true (sa <> sc)

let test_rng_bounds () =
  let r = Rng.create ~seed:1 in
  for _ = 1 to 1000 do
    let v = Rng.int r 7 in
    if v < 0 || v >= 7 then Alcotest.fail "out of bounds"
  done;
  for _ = 1 to 1000 do
    let f = Rng.float r 2.5 in
    if f < 0. || f >= 2.5 then Alcotest.fail "float out of bounds"
  done

let test_rng_split () =
  let parent = Rng.create ~seed:5 in
  let child = Rng.split parent in
  let s1 = List.init 16 (fun _ -> Rng.int parent 100) in
  let s2 = List.init 16 (fun _ -> Rng.int child 100) in
  Alcotest.(check bool) "split streams differ" true (s1 <> s2)

let test_stats () =
  let s = Stats.create () in
  Stats.incr s "a";
  Stats.incr s "a";
  Stats.add s "b" 5;
  Alcotest.(check int) "a" 2 (Stats.get s "a");
  Alcotest.(check int) "b" 5 (Stats.get s "b");
  Alcotest.(check int) "missing" 0 (Stats.get s "nope");
  Alcotest.(check (list string)) "names sorted" [ "a"; "b" ] (Stats.names s);
  let cell = Stats.counter s "a" in
  Stats.bump cell;
  Alcotest.(check int) "cell shared" 3 (Stats.get s "a");
  Alcotest.(check int) "cell read" 3 (Stats.read cell);
  Stats.reset s;
  Alcotest.(check int) "reset" 0 (Stats.get s "a")

let test_histogram () =
  let h = Histogram.create ~bucket_width:10 () in
  List.iter (Histogram.observe h) [ 1; 5; 15; 25; 25 ];
  Alcotest.(check int) "count" 5 (Histogram.count h);
  Alcotest.(check (option int)) "min" (Some 1) (Histogram.min h);
  Alcotest.(check (option int)) "max" (Some 25) (Histogram.max h);
  Alcotest.(check (option (float 0.001))) "mean" (Some 14.2) (Histogram.mean h);
  Alcotest.(check (list (pair int int)))
    "buckets" [ (0, 2); (1, 1); (2, 2) ] (Histogram.buckets h);
  let empty = Histogram.create () in
  Alcotest.(check (option int)) "min of empty" None (Histogram.min empty);
  Alcotest.(check (option int)) "max of empty" None (Histogram.max empty);
  Alcotest.(check (option (float 0.001))) "mean of empty" None
    (Histogram.mean empty)

let test_time () =
  Alcotest.(check int) "of_us rounds" 1500 (Time.of_us 1.5);
  Alcotest.(check (float 0.0001)) "to_us" 1.5 (Time.to_us 1500);
  Alcotest.(check (float 0.0001)) "to_ms" 0.0015 (Time.to_ms 1500);
  Alcotest.(check string) "pp ns" "42ns" (Format.asprintf "%a" Time.pp 42);
  Alcotest.(check string) "pp us" "42.00us"
    (Format.asprintf "%a" Time.pp 42_000)

let test_time_pp_units () =
  Alcotest.(check string) "ms" "42.00ms" (Format.asprintf "%a" Time.pp 42_000_000);
  Alcotest.(check string) "s" "42.000s"
    (Format.asprintf "%a" Time.pp 42_000_000_000)

let test_rng_bool_mixes () =
  let r = Rng.create ~seed:9 in
  let trues = ref 0 in
  for _ = 1 to 1000 do
    if Rng.bool r then incr trues
  done;
  Alcotest.(check bool) "roughly balanced" true (!trues > 400 && !trues < 600)

let test_histogram_no_buckets () =
  let h = Histogram.create () in
  Histogram.observe h 5;
  Alcotest.(check (list (pair int int))) "no bucket view" [] (Histogram.buckets h);
  Alcotest.(check string) "pp" "n=1 min=5 max=5 mean=5.00"
    (Format.asprintf "%a" Histogram.pp h);
  Alcotest.(check string) "pp empty" "(empty)"
    (Format.asprintf "%a" Histogram.pp (Histogram.create ()))

let test_histogram_quantile_exact () =
  (* Ten identical samples in unit-width buckets: every quantile must
     land exactly on the sample. *)
  let h = Histogram.create ~bucket_width:1 () in
  for _ = 1 to 10 do
    Histogram.observe h 42
  done;
  Alcotest.(check (option (float 0.0001))) "p50 exact" (Some 42.0)
    (Histogram.quantile h 0.5);
  Alcotest.(check (option (float 0.0001))) "p99 exact" (Some 42.0)
    (Histogram.quantile h 0.99)

let test_histogram_quantile_interpolated () =
  (* Two samples straddling a wide bucket: the median interpolates to
     the midpoint between them under the bucket-midpoint convention,
     then clamps into [min, max]. *)
  let h = Histogram.create ~bucket_width:10 () in
  Histogram.observe h 5;
  Histogram.observe h 15;
  Alcotest.(check (option (float 0.0001))) "p50 between buckets" (Some 5.0)
    (Histogram.quantile h 0.5);
  (* Uniform 1..100 in unit buckets: classic midpoint answers. *)
  let u = Histogram.create ~bucket_width:1 () in
  for v = 1 to 100 do
    Histogram.observe u v
  done;
  Alcotest.(check (option (float 0.0001))) "p50 of 1..100" (Some 50.5)
    (Histogram.quantile u 0.5);
  Alcotest.(check (option (float 0.0001))) "p99 of 1..100" (Some 99.5)
    (Histogram.quantile u 0.99);
  Alcotest.(check (option (float 0.0001))) "p999 clamps to max" (Some 100.0)
    (Histogram.quantile u 0.999);
  Alcotest.(check (option (float 0.0001))) "p0 clamps to min" (Some 1.0)
    (Histogram.quantile u 0.0)

let test_histogram_quantile_errors () =
  Alcotest.(check (option (float 0.0001))) "empty histogram" None
    (Histogram.quantile (Histogram.create ~bucket_width:1 ()) 0.5);
  Alcotest.check_raises "no bucket_width"
    (Invalid_argument
       "Histogram.quantile: histogram was created without bucket_width")
    (fun () ->
      let h = Histogram.create () in
      Histogram.observe h 1;
      ignore (Histogram.quantile h 0.5));
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Histogram.quantile: q outside [0, 1]") (fun () ->
      ignore (Histogram.quantile (Histogram.create ~bucket_width:1 ()) 1.5))

(* The old [next >> 2 mod bound] was biased: for bound = 3 * 2^60 the
   2^60 values wrapping past 2^62 land entirely in [0, 2^60), so the low
   third of the range carried probability ~1/2 instead of 1/3. With
   rejection sampling each third gets ~1/3. *)
let test_rng_large_bound_uniform () =
  let r = Rng.create ~seed:11 in
  let third = 1 lsl 60 in
  let bound = 3 * third in
  let n = 3000 in
  let low = ref 0 in
  for _ = 1 to n do
    if Rng.int r bound < third then incr low
  done;
  let frac = float_of_int !low /. float_of_int n in
  (* 1/3 +- 5 sigma (sigma ~ 0.0086 at n=3000); the biased sampler put
     this at ~0.5, far outside the band. *)
  Alcotest.(check bool)
    (Printf.sprintf "low third frac %.3f near 1/3" frac)
    true
    (frac > 0.29 && frac < 0.38)

let test_rng_uniformity_qcheck =
  QCheck.Test.make ~count:100 ~name:"rng chi-square uniform"
    QCheck.(pair small_int (int_range 2 32))
    (fun (seed, bound) ->
      let r = Rng.create ~seed in
      let n = 200 * bound in
      let counts = Array.make bound 0 in
      for _ = 1 to n do
        let v = Rng.int r bound in
        counts.(v) <- counts.(v) + 1
      done;
      let expected = float_of_int n /. float_of_int bound in
      let chi2 =
        Array.fold_left
          (fun acc c ->
            let d = float_of_int c -. expected in
            acc +. ((d *. d) /. expected))
          0. counts
      in
      (* dof = bound-1 <= 31; chi2 < dof + 6*sqrt(2*dof) is far beyond
         any reasonable quantile, so a pass here means "not grossly
         non-uniform" without flaking. *)
      let dof = float_of_int (bound - 1) in
      chi2 < dof +. (6. *. Float.sqrt (2. *. dof)))

(* Dequeued entries must become unreachable immediately: the queue holds
   closures and messages, and the old implementation parked the popped
   entry at [heap.(len)] (and [clear] kept the whole array). *)
let test_eq_no_retention () =
  let q = EQ.create () in
  let make_tracked () =
    let v = ref 0 in
    let w = Weak.create 1 in
    Weak.set w 0 (Some v);
    EQ.add q ~time:1 v;
    w
  in
  let popped = make_tracked () in
  ignore (EQ.pop q);
  Gc.full_major ();
  Alcotest.(check bool)
    "popped entry collected" false
    (Weak.check popped 0);
  let cleared = make_tracked () in
  EQ.clear q;
  Gc.full_major ();
  Alcotest.(check bool)
    "cleared entry collected" false
    (Weak.check cleared 0)

let test_eq_tie_break () =
  let q = EQ.create () in
  List.iter (fun s -> EQ.add q ~time:5 s) [ "x"; "y"; "z" ];
  EQ.add q ~time:9 "late";
  (* Always pick the last candidate among the ties; the chooser sees the
     candidate values in insertion (FIFO) order. *)
  EQ.set_tie_break q
    (Some
       (fun c ->
         if Array.length c = 3 then
           Alcotest.(check (list string))
             "candidates in insertion order" [ "x"; "y"; "z" ]
             (Array.to_list c);
         Array.length c - 1));
  let order = List.init 4 (fun _ -> snd (Option.get (EQ.pop q))) in
  Alcotest.(check (list string))
    "reverse order on ties" [ "z"; "y"; "x"; "late" ] order;
  (* choose 0 must be the FIFO default. *)
  List.iter (fun s -> EQ.add q ~time:5 s) [ "x"; "y"; "z" ];
  EQ.set_tie_break q (Some (fun _ -> 0));
  let order = List.init 3 (fun _ -> snd (Option.get (EQ.pop q))) in
  Alcotest.(check (list string)) "choice 0 = FIFO" [ "x"; "y"; "z" ] order;
  (* Times must still be non-decreasing under arbitrary choices. *)
  let rng = Rng.create ~seed:3 in
  EQ.set_tie_break q (Some (fun c -> Rng.int rng (Array.length c)));
  for i = 0 to 199 do
    EQ.add q ~time:(i mod 7) (string_of_int i)
  done;
  let rec drain last =
    match EQ.pop q with
    | None -> ()
    | Some (t, _) ->
        if t < last then Alcotest.fail "time went backwards";
        drain t
  in
  drain min_int

let () =
  Alcotest.run "simcore"
    [
      ( "event_queue",
        [
          Alcotest.test_case "ordering" `Quick test_eq_ordering;
          Alcotest.test_case "fifo ties" `Quick test_eq_fifo_ties;
          Alcotest.test_case "interleaved" `Quick test_eq_interleaved;
          Alcotest.test_case "large sorted" `Quick test_eq_large_sorted;
          Alcotest.test_case "no retention" `Quick test_eq_no_retention;
          Alcotest.test_case "tie break hook" `Quick test_eq_tie_break;
        ] );
      ("clock", [ Alcotest.test_case "monotonic+busy" `Quick test_clock ]);
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split" `Quick test_rng_split;
          Alcotest.test_case "large-bound uniform" `Quick
            test_rng_large_bound_uniform;
          QCheck_alcotest.to_alcotest test_rng_uniformity_qcheck;
        ] );
      ("stats", [ Alcotest.test_case "counters" `Quick test_stats ]);
      ("histogram", [ Alcotest.test_case "summary" `Quick test_histogram ]);
      ( "time",
        [
          Alcotest.test_case "conversions" `Quick test_time;
          Alcotest.test_case "pp units" `Quick test_time_pp_units;
        ] );
      ( "rng-extra",
        [ Alcotest.test_case "bool mixes" `Quick test_rng_bool_mixes ] );
      ( "histogram-extra",
        [
          Alcotest.test_case "no buckets" `Quick test_histogram_no_buckets;
          Alcotest.test_case "quantile exact" `Quick
            test_histogram_quantile_exact;
          Alcotest.test_case "quantile interpolated" `Quick
            test_histogram_quantile_interpolated;
          Alcotest.test_case "quantile edge cases" `Quick
            test_histogram_quantile_errors;
        ] );
    ]
