(* The schedule explorer: sweep N recorded schedules per workload,
   greedily shrink any failing schedule vector to a minimal reproducer,
   and replay reproducers bit-identically (same vector -> same Timeline
   hash). Reproducer files are plain text so they can be committed as
   regression tests and uploaded as CI artifacts. *)

type outcome = {
  o_workload : string;
  o_seed : int option;  (** recording seed, if this run was recorded *)
  o_hash : int;
  o_trace : int array;
  o_violations : (string * string) list;
  o_crash : string option;
}

let failed o = o.o_violations <> [] || Option.is_some o.o_crash

let run_with w sched ~seed =
  match w.Workloads.w_run sched with
  | r ->
      {
        o_workload = w.Workloads.w_name;
        o_seed = seed;
        o_hash = r.Workloads.r_hash;
        o_trace = Schedule.trace sched;
        o_violations = r.Workloads.r_violations;
        o_crash = None;
      }
  | exception e ->
      (* A crash is a failure too — and a deterministic one: the same
         vector reaches the same raise point, so shrinking still works
         (the partial trace up to the crash is the replay vector). *)
      {
        o_workload = w.Workloads.w_name;
        o_seed = seed;
        o_hash = 0;
        o_trace = Schedule.trace sched;
        o_violations = [];
        o_crash = Some (Printexc.to_string e);
      }

let run_recorded w ~seed = run_with w (Schedule.record ~seed) ~seed:(Some seed)
let run_replay w vector = run_with w (Schedule.replay vector) ~seed:None

(* --- greedy shrinking ------------------------------------------------- *)

(* Replay past the end of the vector yields 0 everywhere, so a vector is
   canonical without trailing zeros. *)
let trim_zeros v =
  let n = ref (Array.length v) in
  while !n > 0 && v.(!n - 1) = 0 do
    decr n
  done;
  Array.sub v 0 !n

(* Zero out chunks (halving the chunk size down to single entries),
   keeping any candidate that still fails. 0 means "the unperturbed
   default", so shrinking moves toward the baseline schedule and the
   surviving nonzero entries are exactly the perturbations the bug
   needs. At most [shrink_budget] replays are spent. *)
let shrink_budget = 250

let shrink w vector =
  let budget = ref shrink_budget in
  let cur = ref (trim_zeros vector) in
  let attempt cand =
    if !budget > 0 && cand <> !cur then begin
      decr budget;
      if failed (run_replay w cand) then begin
        cur := trim_zeros cand;
        true
      end
      else false
    end
    else false
  in
  let size = ref (max 1 (Array.length !cur / 2)) in
  let progress = ref true in
  while !budget > 0 && (!size >= 1 && (!progress || !size > 1)) do
    progress := false;
    let n = Array.length !cur in
    let i = ref 0 in
    while !i < n && !budget > 0 do
      if !i < Array.length !cur then begin
        let cand = Array.copy !cur in
        let hi = min (Array.length cand) (!i + !size) in
        let changed = ref false in
        for j = !i to hi - 1 do
          if cand.(j) <> 0 then begin
            cand.(j) <- 0;
            changed := true
          end
        done;
        if !changed && attempt cand then progress := true
      end;
      i := !i + !size
    done;
    if !size = 1 then size := 0 else size := !size / 2;
    if !size = 0 && !progress && !budget > 0 then size := 1
  done;
  !cur

(* --- reproducer files ------------------------------------------------- *)

let save ~path o =
  let oc = open_out path in
  Printf.fprintf oc "# schedule-explorer reproducer (bench/main.exe explore --replay %s)\n"
    (Filename.basename path);
  Printf.fprintf oc "workload: %s\n" o.o_workload;
  (match o.o_seed with
  | Some s -> Printf.fprintf oc "# recorded with seed %d\n" s
  | None -> ());
  List.iter
    (fun (p, d) -> Printf.fprintf oc "# violation: %s: %s\n" p d)
    o.o_violations;
  (match o.o_crash with
  | Some e -> Printf.fprintf oc "# crash: %s\n" e
  | None -> ());
  Printf.fprintf oc "vector: %s\n"
    (String.concat " " (Array.to_list (Array.map string_of_int o.o_trace)));
  close_out oc

let load path =
  let ic = open_in path in
  let workload = ref None and vector = ref None in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if String.length line > 0 && line.[0] <> '#' then
         match String.index_opt line ':' with
         | Some i ->
             let key = String.trim (String.sub line 0 i) in
             let rest =
               String.trim
                 (String.sub line (i + 1) (String.length line - i - 1))
             in
             if key = "workload" then workload := Some rest
             else if key = "vector" then
               vector :=
                 Some
                   (rest |> String.split_on_char ' '
                   |> List.filter (fun s -> s <> "")
                   |> List.map int_of_string |> Array.of_list)
         | None -> ()
     done
   with End_of_file -> close_in ic);
  match (!workload, !vector) with
  | Some w, Some v -> (w, v)
  | _ -> failwith (path ^ ": not a reproducer file (need workload: and vector:)")

(* --- driving ---------------------------------------------------------- *)

type failure = {
  f_outcome : outcome;  (** the original recorded failure *)
  f_minimized : int array;
  f_path : string option;
}

type summary = { runs : int; failures : failure list }

(* Sweep [schedules] recorded schedules per workload. Failing schedules
   are shrunk and written to [out_dir] (when given) as
   [explore-fail-<workload>-<seed>.txt]. *)
let sweep ?out_dir ?(log = ignore) ~workloads ~schedules ~seed () =
  let runs = ref 0 and failures = ref [] in
  List.iter
    (fun w ->
      for i = 0 to schedules - 1 do
        let s = seed + i in
        incr runs;
        let o = run_recorded w ~seed:s in
        if failed o then begin
          log
            (Printf.sprintf "%s seed %d FAILED (%d choices); shrinking..."
               w.Workloads.w_name s (Array.length o.o_trace));
          let min_v = shrink w o.o_trace in
          let path =
            match out_dir with
            | None -> None
            | Some dir ->
                let p =
                  Filename.concat dir
                    (Printf.sprintf "explore-fail-%s-%d.txt"
                       w.Workloads.w_name s)
                in
                save ~path:p { o with o_trace = min_v };
                Some p
          in
          log
            (Printf.sprintf "%s seed %d minimized to %d choice(s)%s"
               w.Workloads.w_name s (Array.length min_v)
               (match path with Some p -> " -> " ^ p | None -> ""));
          failures :=
            { f_outcome = o; f_minimized = min_v; f_path = path } :: !failures
        end
      done)
    workloads;
  { runs = !runs; failures = List.rev !failures }

type replayed = {
  rp_outcome : outcome;
  rp_second_hash : int;
  rp_identical : bool;  (** both replays produced the same hash *)
}

(* Replay a vector twice and check the runs are bit-identical (equal
   Timeline hashes) — the determinism guarantee behind reproducers. *)
let replay w vector =
  let a = run_replay w vector in
  let b = run_replay w vector in
  {
    rp_outcome = a;
    rp_second_hash = b.o_hash;
    rp_identical = a.o_hash = b.o_hash && a.o_crash = b.o_crash;
  }

let replay_file path =
  let name, vector = load path in
  match Workloads.find name with
  | None -> failwith (path ^ ": unknown workload " ^ name)
  | Some w -> replay w vector
