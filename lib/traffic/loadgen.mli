(** Open-loop load generation against the sharded KV tier.

    A closed-loop client waits for each reply before sending again, so
    queueing collapse is structurally invisible: the offered rate sags
    exactly when the service degrades. This generator is {e open-loop}:
    arrival instants come from a seeded Poisson (or fixed-rate) process
    armed as engine timers, computed independently of completions, so
    when a shard falls behind its queue — and the measured tail — grows.

    Determinism and replay: the arrival process draws from its own
    seeded {!Simcore.Rng} (a pure function of [seed]), and every arrival
    additionally consults engine decision points —
    ["traffic.arrival.jitter"] (extra delay before the injection, in
    eighths of the nominal period) and ["traffic.key.shift"] /
    ["traffic.key.zipf"] (a key perturbation, for uniform and Zipfian
    draws respectively) — through {!Machine.Engine.decide}. Under the default
    decision source both return 0 (the unperturbed baseline); under
    [lib/check] the choices are recorded into the schedule's vector, so
    a recorded run replays bit-identically and the explorer can perturb
    arrival timing and key skew like any other schedule decision. *)

type process = Poisson | Fixed

type mix = { m_get : int; m_put : int; m_cas : int; m_mget : int }
(** Relative weights of the four operations. *)

val default_mix : mix
(** 60% get / 25% put / 10% cas / 5% fan-out mget. *)

type key_dist =
  | Uniform
  | Zipf of float
      (** Zipfian key popularity with parameter theta (> 0): rank [r]
          gets weight [1/(r+1)^theta], rank 0 is the hottest key. The
          rank is drawn from the generator's seeded stream and then
          perturbed through a ["traffic.key.zipf"] decision point, so
          recorded schedules replay bit-identically and the explorer
          can nudge the skew. *)

type config = {
  seed : int;
  process : process;
  rate_rps : int;  (** offered load, requests per second of virtual time *)
  requests : int;  (** total injections, after which the process stops *)
  mix : mix;
  key_dist : key_dist;  (** key popularity; [Uniform] is the baseline *)
}

val default_config : config
(** Poisson, 200k req/s, 1000 requests, seed 1, uniform keys. *)

type t

val launch : config -> Core.System.t -> Apps.Kv_store.t -> t
(** Arms the arrival process on the system's engine (first arrival at
    1 us). Call after {!Apps.Kv_store.spawn} and before
    [System.run]; injections ride the run. *)

val launch_sharded : config -> Core.System.t -> Apps.Kv_store.t -> t
(** Like {!launch}, but one arrival chain per node, each offering
    [rate_rps / nodes] (superposed independent Poisson chains recover
    the aggregate rate) and injecting only at its own node's client.
    Chain [n] draws from [Rng.derive base ~index:n] — a pure function
    of [(seed, n)] — and owns the request ids congruent
    to [n] modulo the node count ([requests] split evenly, remainder to
    low nodes). Every chain's timers, draws and posts stay on its own
    node, so this is the arrival mode for {!Core.System.run_parallel};
    it also runs — bit-identically across domain counts — under the
    sequential engine. *)

val injected : t -> int

val config : t -> config
val store : t -> Apps.Kv_store.t

val audit : t -> Core.System.t -> string list
(** Quiescence invariants: the full offered load was injected, plus
    every {!Apps.Kv_store.audit} invariant (no lost or duplicated
    completion, write/version conservation). *)
