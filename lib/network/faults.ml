type window = {
  node : int;
  from_ns : Simcore.Time.t;
  until_ns : Simcore.Time.t;
}

type plan = {
  seed : int;
  drop : float;
  duplicate : float;
  jitter_ns : int;
  crashes : window list;
}

let check_prob name p =
  if not (p >= 0. && p <= 1.) then
    invalid_arg (Printf.sprintf "Faults.plan: %s must be in [0, 1]" name)

let plan ?(seed = 1) ?(drop = 0.) ?(duplicate = 0.) ?(jitter_ns = 0)
    ?(crashes = []) () =
  check_prob "drop" drop;
  check_prob "duplicate" duplicate;
  if jitter_ns < 0 then invalid_arg "Faults.plan: negative jitter";
  List.iter
    (fun w ->
      if w.until_ns <= w.from_ns then
        invalid_arg "Faults.plan: empty crash window";
      if w.node < 0 then invalid_arg "Faults.plan: bad crash node")
    crashes;
  { seed; drop; duplicate; jitter_ns; crashes }

let is_fault_free p =
  p.drop = 0. && p.duplicate = 0. && p.jitter_ns = 0 && p.crashes = []

type t = {
  t_plan : plan;
  (* The live crash windows. Seeded from the plan, but mutable: a
     recovery manager re-times them through recorded decision points
     (schedule-explorer choice vectors) before any packet flies, so the
     crash instant replays deterministically instead of being baked into
     the plan. *)
  mutable t_crashes : window list;
  (* per-(src, dst) channel streams; the seed of each is a pure function
     of (plan seed, src, dst), so creation order is irrelevant to the
     draws. When the node count is known at creation every stream is
     preallocated eagerly. *)
  channels : (int * int, Simcore.Rng.t) Hashtbl.t;
}

let channel_seed p ~src ~dst = p.seed + (src * 2_000_003) + (dst * 7_919)

let create ?nodes p =
  let channels = Hashtbl.create 64 in
  (match nodes with
  | None -> ()
  | Some n ->
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          if src <> dst then
            Hashtbl.add channels (src, dst)
              (Simcore.Rng.create ~seed:(channel_seed p ~src ~dst))
        done
      done);
  { t_plan = p; t_crashes = p.crashes; channels }

let set_crashes t ws =
  List.iter
    (fun w ->
      if w.until_ns <= w.from_ns then
        invalid_arg "Faults.set_crashes: empty crash window";
      if w.node < 0 then invalid_arg "Faults.set_crashes: bad crash node")
    ws;
  t.t_crashes <- ws

let crashed t ~node ~at =
  List.exists
    (fun w -> w.node = node && at >= w.from_ns && at < w.until_ns)
    t.t_crashes

type fate = {
  f_drop : bool;
  f_duplicate : bool;
  f_jitter : int;
  f_dup_jitter : int;
}

let channel_rng t ~src ~dst =
  match Hashtbl.find_opt t.channels (src, dst) with
  | Some rng -> rng
  | None ->
      (* Lazy fallback for states created without a node count — the
         stream is the same pure function of (seed, src, dst) either
         way. Only reached on the sequential engine. *)
      let rng = Simcore.Rng.create ~seed:(channel_seed t.t_plan ~src ~dst) in
      Hashtbl.add t.channels (src, dst) rng;
      rng

let fate t ~src ~dst =
  let p = t.t_plan in
  let rng = channel_rng t ~src ~dst in
  (* Draw every component unconditionally so the channel stream advances
     by a fixed amount per packet: fates stay aligned even if the plan's
     rates differ between otherwise-identical runs. *)
  let d = Simcore.Rng.float rng 1.0 in
  let dup = Simcore.Rng.float rng 1.0 in
  let draw_jitter () =
    let j = Simcore.Rng.int rng (p.jitter_ns + 1) in
    if p.jitter_ns > 0 then j else 0
  in
  let jit = draw_jitter () in
  let dup_jit = 1 + draw_jitter () in
  {
    f_drop = d < p.drop;
    f_duplicate = dup < p.duplicate;
    f_jitter = jit;
    f_dup_jitter = dup_jit;
  }

