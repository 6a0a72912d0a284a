module Engine = Machine.Engine

type t = {
  machine : Engine.t;
  mutable slice_log : (int * Simcore.Time.t * Simcore.Time.t) list;
  mutable slice_count : int;
  mutable delivery_count : int;
  mutable batch_count : int;
  mutable batched_frames : int;
  traffic : (int * int, int ref) Hashtbl.t;
  busy : int array;  (** accumulated busy ns per node *)
  mutable hash : int;  (** running digest of every observation, in order *)
}

(* Fold one observation field into the running digest (splitmix-style
   finalizer over the accumulated state). Two runs share a hash iff the
   engine emitted the same observations in the same order with the same
   timestamps — the bit-identical-replay check. *)
let mix h v =
  let h = h lxor (v * 0x1E3779B97F4A7C15) in
  let h = (h lxor (h lsr 30)) * 0x3F58476D1CE4E5B9 in
  let h = (h lxor (h lsr 27)) * 0x14D049BB133111EB in
  h lxor (h lsr 31)

let attach_machine machine =
  let t =
    {
      machine;
      slice_log = [];
      slice_count = 0;
      delivery_count = 0;
      batch_count = 0;
      batched_frames = 0;
      traffic = Hashtbl.create 64;
      busy = Array.make (Engine.node_count machine) 0;
      hash = 0;
    }
  in
  Engine.set_observer machine
    (Some
       (function
       | Engine.Obs_slice { node; t_start; t_end } ->
           t.slice_log <- (node, t_start, t_end) :: t.slice_log;
           t.slice_count <- t.slice_count + 1;
           t.busy.(node) <- t.busy.(node) + (t_end - t_start);
           t.hash <- mix (mix (mix (mix t.hash 1) node) t_start) t_end
       | Engine.Obs_deliver { time; src; dst } ->
           t.delivery_count <- t.delivery_count + 1;
           let key = (src, dst) in
           (match Hashtbl.find_opt t.traffic key with
           | Some r -> incr r
           | None -> Hashtbl.add t.traffic key (ref 1));
           t.hash <- mix (mix (mix (mix t.hash 2) time) src) dst
       | Engine.Obs_batch { time; src; dst; frames } ->
           t.batch_count <- t.batch_count + 1;
           t.batched_frames <- t.batched_frames + frames;
           t.hash <-
             mix (mix (mix (mix (mix t.hash 3) time) src) dst) frames
       | Engine.Obs_crash { time; node; incarnation } ->
           t.hash <- mix (mix (mix (mix t.hash 4) time) node) incarnation
       | Engine.Obs_restart { time; node; incarnation } ->
           t.hash <- mix (mix (mix (mix t.hash 5) time) node) incarnation));
  t

let attach system = attach_machine (Core.System.machine system)
let detach t = Engine.set_observer t.machine None
let hash t = t.hash
let slices t = t.slice_count
let deliveries t = t.delivery_count

let busy_fraction t ~node =
  let makespan = Engine.elapsed t.machine in
  if makespan = 0 then 0.
  else float_of_int t.busy.(node) /. float_of_int makespan

(* Nodes past this row count are left out of the gantt chart. *)
let max_rows = 16

let render ?(width = 64) t =
  let makespan = max 1 (Engine.elapsed t.machine) in
  let nodes = min max_rows (Engine.node_count t.machine) in
  let buckets = Array.make_matrix nodes width 0 in
  let bucket_ns = max 1 (makespan / width) in
  List.iter
    (fun (node, t0, t1) ->
      if node < nodes then begin
        let b0 = min (width - 1) (t0 / bucket_ns) in
        let b1 = min (width - 1) (t1 / bucket_ns) in
        for b = b0 to b1 do
          (* credit the overlap of [t0,t1) with bucket b *)
          let lo = max t0 (b * bucket_ns) and hi = min t1 ((b + 1) * bucket_ns) in
          if hi > lo then buckets.(node).(b) <- buckets.(node).(b) + (hi - lo)
        done
      end)
    t.slice_log;
  let buf = Buffer.create ((nodes + 2) * (width + 16)) in
  Buffer.add_string buf
    (Printf.sprintf "timeline: %s makespan, %d slices, %d deliveries%s\n"
       (Format.asprintf "%a" Simcore.Time.pp makespan)
       t.slice_count t.delivery_count
       (if t.batch_count = 0 then ""
        else
          Printf.sprintf " (%d frames in %d batches)" t.batched_frames
            t.batch_count));
  for node = 0 to nodes - 1 do
    Buffer.add_string buf (Printf.sprintf "%4d |" node);
    for b = 0 to width - 1 do
      let frac = float_of_int buckets.(node).(b) /. float_of_int bucket_ns in
      Buffer.add_char buf
        (if frac <= 0.01 then ' ' else if frac < 0.5 then '.' else '#')
    done;
    Buffer.add_string buf
      (Printf.sprintf "| %3.0f%%\n" (100. *. busy_fraction t ~node));
  done;
  if Engine.node_count t.machine > nodes then
    Buffer.add_string buf
      (Printf.sprintf "(%d more nodes not shown)\n"
         (Engine.node_count t.machine - nodes));
  Buffer.contents buf

let message_matrix t =
  Hashtbl.fold (fun (src, dst) r acc -> (src, dst, !r) :: acc) t.traffic []
  |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)
