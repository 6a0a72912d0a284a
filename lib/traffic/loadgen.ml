module Engine = Machine.Engine

type process = Poisson | Fixed
type mix = { m_get : int; m_put : int; m_cas : int; m_mget : int }

let default_mix = { m_get = 60; m_put = 25; m_cas = 10; m_mget = 5 }

type key_dist =
  | Uniform
  | Zipf of float
      (** skewed key popularity with the given theta (> 0); rank 0 is
          the hottest key. Ranks map straight onto key ids, so the hot
          ranks spread across shards ([key mod shards]) while each
          shard still sees a skewed stream. *)

type config = {
  seed : int;
  process : process;
  rate_rps : int;
  requests : int;
  mix : mix;
  key_dist : key_dist;
}

let default_config =
  {
    seed = 1;
    process = Poisson;
    rate_rps = 200_000;
    requests = 1_000;
    mix = default_mix;
    key_dist = Uniform;
  }

(* The first arrival instant of every chain. *)
let start_ns = 1_000

(* One arrival chain. Classic mode runs a single global chain
   ([g_node = -1], injection node drawn per arrival); sharded mode runs
   one chain per node, each owning a derived rng stream and injecting
   only at its own node's client — so under [System.run_parallel] every
   chain's draws, timers and posts stay inside one domain. *)
type gen = {
  g_node : int;
  g_rng : Simcore.Rng.t;
  g_share : int;  (** requests this chain will inject *)
  mutable g_count : int;
}

type t = {
  cfg : config;
  sys : Core.System.t;
  kv : Apps.Kv_store.t;
  zipf_cdf : float array option;
      (** cumulative popularity by rank, precomputed at launch;
          read-only after launch, so chains may share it *)
  gens : gen array;
}

(* Normalised cumulative Zipf weights: cdf.(r) = P(rank <= r). *)
let make_zipf_cdf ~n ~theta =
  if theta <= 0. then invalid_arg "Loadgen: Zipf theta must be > 0";
  let w = Array.init n (fun i -> 1. /. (float_of_int (i + 1) ** theta)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. x;
      !acc /. total)
    w

(* Smallest rank whose cumulative weight covers [u]. *)
let zipf_rank cdf u =
  let n = Array.length cdf in
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

let period_ns cfg = 1_000_000_000. /. float_of_int cfg.rate_rps

let draw_op cfg rng =
  let m = cfg.mix in
  let total = m.m_get + m.m_put + m.m_cas + m.m_mget in
  if total <= 0 then invalid_arg "Loadgen: operation mix sums to zero";
  let r = Simcore.Rng.int rng total in
  if r < m.m_get then Apps.Kv_store.Get
  else if r < m.m_get + m.m_put then Apps.Kv_store.Put
  else if r < m.m_get + m.m_put + m.m_cas then Apps.Kv_store.Cas
  else Apps.Kv_store.Mget

(* [decide] is the engine's decision source ({!Engine.decide}). *)
let draw_key t rng ~decide =
  let keyspace = Apps.Kv_store.keyspace t.kv in
  match t.zipf_cdf with
  | None ->
      let base = Simcore.Rng.int rng keyspace in
      let shift = decide "traffic.key.shift" 4 in
      (base + shift) mod keyspace
  | Some cdf ->
      (* The rank comes from the generator's own seeded stream; the
         recorded decision point only perturbs it, so a captured
         schedule replays the exact same key sequence. *)
      let u = Simcore.Rng.float rng 1.0 in
      let rank = zipf_rank cdf u in
      let shift = decide "traffic.key.zipf" 4 in
      (rank + shift) mod keyspace

let inject t g ~node ~at ~req_id ~decide =
  let op = draw_op t.cfg g.g_rng in
  let key = draw_key t g.g_rng ~decide in
  g.g_count <- g.g_count + 1;
  Core.System.send_boot t.sys
    (Apps.Kv_store.client_addr t.kv ~node)
    Apps.Kv_store.p_op
    [
      Core.Value.int (Apps.Kv_store.op_code op);
      Core.Value.int key;
      Core.Value.int at;
      Core.Value.int req_id;
    ]

let next_gap cfg rng ~period ~decide =
  let base =
    match cfg.process with
    | Fixed -> period
    | Poisson ->
        (* Inverse-CDF exponential; 1 - u keeps the argument in (0, 1]. *)
        let u = Simcore.Rng.float rng 1.0 in
        -.period *. log (1. -. u)
  in
  let jitter_q = decide "traffic.arrival.jitter" 4 in
  let jitter = float_of_int jitter_q *. period /. 8. in
  Stdlib.max 1 (int_of_float (Float.round (base +. jitter)))

let make ~gens cfg sys kv =
  if cfg.rate_rps < 1 then invalid_arg "Loadgen.launch: rate_rps must be >= 1";
  if cfg.requests < 1 then invalid_arg "Loadgen.launch: requests must be >= 1";
  let zipf_cdf =
    match cfg.key_dist with
    | Uniform -> None
    | Zipf theta ->
        Some (make_zipf_cdf ~n:(Apps.Kv_store.keyspace kv) ~theta)
  in
  { cfg; sys; kv; zipf_cdf; gens }

let launch cfg sys kv =
  let g =
    {
      g_node = -1;
      g_rng = Simcore.Rng.create ~seed:cfg.seed;
      g_share = cfg.requests;
      g_count = 0;
    }
  in
  let t = make ~gens:[| g |] cfg sys kv in
  let machine = Core.System.machine sys in
  let nodes = Core.System.node_count sys in
  let decide = Engine.decide machine in
  let period = period_ns cfg in
  (* Arrival i+1 is armed from arrival i's timer, so the whole process
     is a single deterministic chain of draws — open-loop by
     construction (nothing here observes completions). *)
  let rec arm at =
    Engine.schedule_at machine ~time:at (fun () ->
        let node = Simcore.Rng.int g.g_rng nodes in
        inject t g ~node ~at ~req_id:g.g_count ~decide;
        if g.g_count < cfg.requests then arm (at + next_gap cfg g.g_rng ~period ~decide))
  in
  arm start_ns;
  t

let launch_sharded cfg sys kv =
  let nodes = Core.System.node_count sys in
  let machine = Core.System.machine sys in
  let base = Simcore.Rng.create ~seed:cfg.seed in
  let gens =
    Array.init nodes (fun node ->
        {
          g_node = node;
          (* [derive] does not advance [base], so every chain's stream
             is a pure function of (seed, node) — independent of the
             order the chains are built or run in. *)
          g_rng = Simcore.Rng.derive base ~index:node;
          g_share =
            (cfg.requests / nodes)
            + (if node < cfg.requests mod nodes then 1 else 0);
          g_count = 0;
        })
  in
  let t = make ~gens cfg sys kv in
  let decide = Engine.decide machine in
  (* Each chain offers 1/nodes of the rate; superposed independent
     Poisson processes recover the configured aggregate rate. *)
  let period = period_ns cfg *. float_of_int nodes in
  Array.iter
    (fun g ->
      if g.g_share > 0 then begin
        let node = g.g_node in
        let rec arm at =
          (* [schedule_on] pins the timer to the chain's node, so under
             [run_parallel] the whole chain — draws and the local post
             behind [send_boot] — executes on that node's domain. *)
          Engine.schedule_on machine ~node ~time:at (fun () ->
              (* Globally unique and schedule-independent: chain [node]
                 owns the ids congruent to [node] mod [nodes]. *)
              let req_id = (g.g_count * nodes) + node in
              inject t g ~node ~at ~req_id ~decide;
              if g.g_count < g.g_share then
                arm (at + next_gap cfg g.g_rng ~period ~decide))
        in
        arm start_ns
      end)
    gens;
  t

let injected t = Array.fold_left (fun acc g -> acc + g.g_count) 0 t.gens
let config t = t.cfg
let store t = t.kv

let audit t sys =
  let missing =
    if injected t <> t.cfg.requests then
      [
        Printf.sprintf "traffic: injected %d of %d offered requests"
          (injected t) t.cfg.requests;
      ]
    else []
  in
  missing @ Apps.Kv_store.audit t.kv sys
