(** Booting and running an ABCL system on the simulated multicomputer.

    A system ties together the machine (nodes + torus fabric + event
    engine), the per-node runtime states, the active-message handlers of
    Section 5.1, and the pre-delivered chunk stocks for remote creation. *)

type t

val default_rt_config : Kernel.rt_config
(** Hybrid scheduling, depth limit 2000, 50k-instruction preemption
    quantum, stock size 2, round-robin placement. *)

val naive_rt_config : Kernel.rt_config
(** The Section 6.3 baseline: every local message is buffered and
    scheduled through the queue. *)

val boot :
  ?machine_config:Machine.Engine.config ->
  ?rt_config:Kernel.rt_config ->
  nodes:int ->
  classes:Kernel.cls list ->
  unit ->
  t
(** Builds a machine with [nodes] processors and registers [classes] for
    remote creation (classes only ever created locally may be omitted). *)

val machine : t -> Machine.Engine.t
val node_count : t -> int
val rt : t -> int -> Kernel.node_rt
val stats : t -> Simcore.Stats.t
val config : t -> Kernel.rt_config

val create_root : t -> node:int -> Kernel.cls -> Value.t list -> Value.addr
(** Creates a bootstrap object before the simulation starts (charged to
    the owning node like any local creation). *)

val send_boot :
  t -> ?from:int -> Value.addr -> Pattern.t -> Value.t list -> unit
(** Schedules an initial message, injected when the simulation starts.
    [from] defaults to the target's node. *)

val run : ?max_slices:int -> t -> unit
(** Runs the machine to quiescence. *)

val run_parallel : ?max_slices:int -> t -> domains:int -> unit
(** Runs the machine to quiescence with nodes sharded across [domains]
    OCaml domains under the engine's conservative-lookahead scheme (see
    {!Machine.Engine.run_parallel} for the determinism contract and the
    feature restrictions: among them, auto-gossip's engine-level rounds
    synchronise all node clocks, which has no per-domain
    decomposition). *)

val elapsed : t -> Simcore.Time.t
val utilization : t -> float

val total_heap_words : t -> int
(** Sum of per-node heap accounting, for the paper's memory column. *)

val lookup_obj : t -> Value.addr -> Kernel.obj option
(** Test/debug access to an object's representation. *)

val pp_summary : Format.formatter -> t -> unit
