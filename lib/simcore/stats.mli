(** Named counters collected during a simulation run.

    A [Stats.t] is attached to a machine; runtime layers bump counters
    by name. Counter creation is cached, so the hot path is one
    hashtable lookup amortised to a {!bump} on the cached {!cell}.

    Names follow [<layer>.<event>] ([reliable.retransmit], [dgc.sweeps],
    [recover.crashes]), so a name prefix selects a layer. Every runtime
    fact is counted exactly once: an event that a layer already counts
    in its own structure (fabric drops and duplicates, aggregation
    batches) gets no Stats cell, and no layer keeps a private copy of a
    Stats counter or a per-node split of one. Reports and benchmark
    rows derive from that single count.

    Cells are sharded per simulation domain: {!bump} writes a private
    padded slot indexed by {!Domain_ctx.current}, and {!read} sums the
    slots. Bumping is therefore safe from any domain of a parallel run
    with no synchronisation, and the merged totals are independent of
    the domain count (sums commute) — counters never perturb the
    engine's bit-identical replay guarantee. Call {!shard} before
    spawning domains so every cell has a slot per domain. *)

type t
type cell

val create : unit -> t

val counter : t -> string -> cell
(** The counter cell registered under the given name (created at zero on
    first use). Callers may keep the cell for repeated increments. *)

val bump : cell -> unit
(** Adds 1 to the calling domain's slot. *)

val bump_n : cell -> int -> unit

val read : cell -> int
(** Sum over all domain slots. Only exact once domains have joined (or
    between barrier phases); mid-window cross-domain reads may miss
    in-flight increments. *)

val shard : t -> int -> unit
(** [shard t n] widens every cell (current and future) to [n] domain
    slots. Idempotent; never shrinks. Must be called before domains
    that will bump are spawned. *)

val incr : t -> string -> unit

val add : t -> string -> int -> unit

val get : t -> string -> int
(** Current value; 0 if the counter was never touched. *)

val names : t -> string list
(** All registered counter names, sorted. *)

val to_alist : t -> (string * int) list
(** Sorted (name, value) pairs. *)

val reset : t -> unit
(** Zeroes every counter (registrations are kept). *)

val pp : Format.formatter -> t -> unit
