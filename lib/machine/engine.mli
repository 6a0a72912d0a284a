(** The simulated multicomputer: nodes + torus fabric + discrete-event
    engine + active-message handler table.

    Execution model: the engine interleaves nodes one {e slice} at a time
    in virtual-timestamp order. A slice polls the node's ready inbox
    (dispatching each active message to its registered handler, which may
    run whole method cascades on the OCaml stack — the paper's stack-based
    scheduling), then runs at most one item from the node's scheduling
    queue. Polling also happens whenever the runtime explicitly calls
    {!poll} at method boundaries, matching the paper's polling-based
    message delivery. *)

type delivery_mode =
  | Polling  (** CM-5 / AP1000 style: arrival noticed at poll points *)
  | Interrupt  (** nCUBE/2 / iPSC/2 style: extra per-message overhead *)

type config = {
  cost : Cost_model.t;
  fabric : Network.Fabric.config;
  delivery : delivery_mode;
  seed : int;
  faults : Network.Faults.plan option;
      (** fault plan for the fabric. [None], or a plan for which
          {!Network.Faults.is_fault_free} holds, leaves the machine
          bit-identical to the fault-free build; any real fault activates
          the {!Reliable} delivery layer underneath the AM handlers. *)
  reliable : Reliable.config;  (** protocol tuning; used only with faults *)
  coalesce : Coalesce.config option;
      (** per-destination message aggregation. [None] (the default)
          leaves the send path bit-identical to the unbatched build.
          [Some _] buffers outgoing frames per destination and ships
          them as multi-frame packets — one routing header and one
          hardware launch per batch — flushing on a size threshold,
          scheduler idle, an age deadline, or a pending-ack deadline,
          under per-channel credit flow control. Composes with the
          fault layer: under a fault plan whole batches share a fate
          and the reliable protocol re-sequences their frames. *)
}

val default_config : config

type t

val create : ?config:config -> nodes:int -> unit -> t
(** Builds a machine whose torus is [Topology.square_for nodes]. *)

val config : t -> config
val cost : t -> Cost_model.t
val topology : t -> Network.Topology.t
val stats : t -> Simcore.Stats.t
val rng : t -> Simcore.Rng.t
val node_count : t -> int
val node : t -> int -> Node.t
val nodes : t -> Node.t array

val charge : t -> Node.t -> int -> unit
(** [charge t n instructions] advances [n]'s clock per the cost model. *)

(** {2 Active messages} *)

val register_handler :
  t -> Am.category -> name:string -> (t -> Node.t -> Am.t -> unit) -> int
(** Registers a self-dispatching handler; returns its id to embed in
    messages. The handler runs on the destination node when the message
    is polled. *)

val send_am :
  t -> src:Node.t -> dst:int -> handler:int -> size_bytes:int -> Am.payload -> unit
(** Injects a message into the fabric at the source node's current time.
    Does {e not} charge the sender's setup instructions — the runtime
    charges those explicitly so benches can account for them. *)

val poll : t -> Node.t -> unit
(** Dispatches every inbox message that has already arrived, charging
    receive handling (plus interrupt overhead in [Interrupt] mode) per
    message. *)

val interrupt_point : t -> Node.t -> unit
(** In [Interrupt] delivery mode, takes any pending message now (unless
    interrupts are masked). The runtime places these points at user-level
    computation and send boundaries; runtime bookkeeping between them is
    implicitly a masked critical section. No-op under [Polling]. *)

(** {2 Work scheduling} *)

val post : t -> Node.t -> (unit -> unit) -> unit
(** Pushes a thunk onto the node's scheduling queue and wakes the node.
    This is how the runtime enqueues "(object, continuation address)"
    items, and how programs bootstrap initial work. A down node refuses
    the work — the thunk is discarded and counted under
    ["recover.posts_refused"]; resubmit after the restart if it must
    survive. *)

val schedule_at : t -> time:Simcore.Time.t -> (unit -> unit) -> unit
(** Arms an engine-level timer: the thunk runs when the virtual clock
    reaches [time] (clamped to now). Periodic services re-arm from
    inside the thunk — but should first consult {!quiescent} so a
    finished run still drains its event queue and {!run} returns. *)

val schedule_on :
  t -> node:int -> time:Simcore.Time.t -> (unit -> unit) -> unit
(** Like {!schedule_at}, but the timer belongs to [node]: a parallel run
    executes it on the domain that owns the node (and the thunk may only
    touch that node). Sequentially identical to {!schedule_at}. *)

val quiescent : t -> bool
(** Every node idle, no reliable-delivery traffic outstanding and no
    aggregation buffer still open: the machine would stop if no timer
    re-armed. *)

(** {2 Running} *)

(** {2 Observation} *)

type observation =
  | Obs_deliver of { time : Simcore.Time.t; src : int; dst : int }
      (** a packet reached its destination node *)
  | Obs_slice of { node : int; t_start : Simcore.Time.t; t_end : Simcore.Time.t }
      (** one execution slice of a node that advanced its clock *)
  | Obs_batch of { time : Simcore.Time.t; src : int; dst : int; frames : int }
      (** an aggregated multi-frame packet reached its destination *)
  | Obs_crash of { time : Simcore.Time.t; node : int; incarnation : int }
      (** [node]'s incarnation [incarnation] died *)
  | Obs_restart of { time : Simcore.Time.t; node : int; incarnation : int }
      (** [node] came back as (new) incarnation [incarnation] *)

val set_observer : t -> (observation -> unit) option -> unit
(** Streams engine events to a callback (timeline tools, tracing).
    [None] detaches. *)

val run : ?max_slices:int -> t -> unit
(** Processes events until the machine quiesces (no pending events).
    Raises [Failure] if [max_slices] is exceeded — a backstop against
    livelocked programs. *)

val run_parallel : ?max_slices:int -> t -> domains:int -> unit -> unit
(** Like {!run}, but shards the nodes across [domains] OCaml domains
    (clamped to the node count), each driving its own event queue, and
    synchronises them with a conservative lookahead barrier: every
    domain executes all events below [global_min + lookahead] per round,
    where the lookahead is {!Network.Fabric.min_remote_latency} — the
    guaranteed minimum timestamp increment of any cross-node message.
    Cross-node deliveries defer to the next round boundary and apply in
    canonical (arrival, source node, per-source seq) order, so the run —
    including the Timeline observation stream, replayed in canonical
    merged order at the end — is bit-identical for {e any} [domains],
    including 1. ([run_parallel ~domains:1] is {e not} byte-identical to
    {!run}: the sequential engine interleaves observations and inbox
    insertions in pop order rather than boundary order. Compare parallel
    runs with parallel runs.)

    Fault plans, coalescing and recovery hooks are all accepted: fault
    fates come from per-channel streams owned by the sending node's
    domain, open aggregation buffers are node-local (flush triggers ride
    the owning domain's window, and framed batches cross domains through
    the boundary mailboxes with whole-batch fate preserved), and
    checkpoint/restart timers are node-owned events. Still sequential-
    only: fabric contention (a shared link-occupancy table), nodes
    already down at call time, and the global decision / tie-break hooks
    (use {!set_node_decision_source}); raises [Invalid_argument] for
    those — and a rejected call is side-effect-free, leaving the engine
    exactly as it was. [max_slices] bounds the total slice count across
    all domains, checked once per round.

    Raises {!Lookahead_violation} if a cross-node effect lands inside
    the current window — only possible with a fabric config whose
    {!Network.Fabric.min_remote_latency} understates a real path (e.g. a
    pathological [bytes_per_us] that makes a mid-batch frame outrun a
    bare header). *)

exception
  Lookahead_violation of {
    domain : int;  (** the shard that produced the violating effect *)
    node : int;  (** the sending node *)
    arrival : Simcore.Time.t;
    horizon : Simcore.Time.t;  (** end of the window it should have cleared *)
  }
(** Raised (out of {!run_parallel}, propagated from the violating
    domain) when the conservative-lookahead invariant breaks. *)

val events_processed : t -> int
(** Events executed so far by {!run} and {!run_parallel} together — the
    numerator of a host-side events-per-second figure. *)

val lookahead_ns : t -> Simcore.Time.t
(** The conservative lookahead {!run_parallel} uses: the fabric's
    minimum cross-node latency. *)

val now : t -> Simcore.Time.t
(** Timestamp of the most recently processed event. Domain-local during
    a parallel run: inside an event handler it equals that event's time
    (count-invariant); between events it is the calling domain's own
    cursor, so boundary-phase code must not treat it as global. *)

val elapsed : t -> Simcore.Time.t
(** Makespan: the maximum node clock. *)

val total_busy : t -> Simcore.Time.t
(** Sum over nodes of busy (execution) time. *)

val utilization : t -> float
(** [total_busy / (elapsed * node_count)], in [0, 1]. *)

val packets_sent : t -> int
val bytes_sent : t -> int

(** {2 Fault model} *)

val faults_active : t -> bool
(** True iff a non-trivial fault plan (and with it the reliable-delivery
    layer) is live on this machine. *)

val reliable : t -> Reliable.t option
(** The reliable-delivery protocol state, for degradation reports. *)

val reliable_in_flight : t -> int
(** Messages sent but not yet acknowledged (0 when faults are off). A
    quiescent machine with a nonzero count lost messages for good. *)

val packets_dropped : t -> int
(** Packets the fault layer destroyed (including crash-window losses). *)

val packets_duplicated : t -> int

val faults_state : t -> Network.Faults.t option
(** The fabric's live fault state: the recovery manager re-times crash
    windows through it ({!Network.Faults.set_crashes}) before traffic
    starts, so crash instants replay from the recorded choice vector. *)

(** {2 Crash and recovery}

    The engine provides the {e mechanism}: a node can be killed (losing
    all volatile state — inbox, run queue, open aggregation buffers)
    and later restarted as a new incarnation. The {e policy} — stable
    storage, checkpointing, log replay, rebuilding the inbox — lives in
    the [Recover] library, which drives these entry points and installs
    {!recovery_hooks} to see every delivery, dispatch and send. While a
    node is down it processes no events: its wakes are discarded,
    frames addressed to it are dropped (counted under the
    ["recover.dropped_while_down"] stat), and its reliable-protocol
    timers are deferred past the restart instant rather than consumed. *)

type recovery_hooks = {
  rc_deliver : dst:int -> arrival:Simcore.Time.t -> Am.t -> unit;
      (** a message landed in [dst]'s inbox *)
  rc_dispatch : node:int -> Am.t -> unit;
      (** a message is about to run its handler on [node] *)
  rc_send : src:int -> bool;
      (** consulted before every {!send_am} from [src]; returning
          [false] swallows the send (used during log replay, when the
          original send's effects are already journaled) *)
}

val set_recovery_hooks : t -> recovery_hooks option -> unit

val crash_node : t -> int -> restart_at:Simcore.Time.t -> unit
(** Kills the node now: wipes its volatile state ({!Node.crash_reset}),
    resets its open aggregation buffers, and marks it down until
    [restart_at] (protocol timers are parked just past that instant).
    The node's clock survives — it is the engine's virtual-time cursor.
    Raises [Invalid_argument] if the node is already down or
    [restart_at] is not in the future. *)

val restart_node : t -> int -> unit
(** Brings a down node back as a fresh incarnation and wakes it so it
    polls whatever the recovery manager rebuilt into its inbox. The
    manager restores state {e before} calling this. *)

val redispatch : t -> node:int -> Am.t -> unit
(** Runs a message's handler again on the (restarted) node, charged and
    observed exactly like the original dispatch. Log replay only. *)

val node_down : t -> int -> bool
val node_incarnation : t -> int -> int
(** Restart count of the node (0 = original incarnation). *)

val node_crash_count : t -> int -> int

val crash_dropped : t -> int
(** Packets lost to crash windows (vs. random drops); see
    {!Network.Fabric.crash_dropped}. *)

(** {2 Message aggregation} *)

val coalesce_active : t -> bool
(** True iff the per-destination aggregation layer is live. *)

val coalesce_buffered : t -> int
(** Frames currently parked in open aggregation buffers (0 when
    aggregation is off, and at clean quiescence). *)

val coalesce_stats : t -> Coalesce.stats option

val set_piggyback_source : t -> (src:int -> dst:int -> Am.t list) option -> unit
(** Registers the flush-time piggyback hook: when a batch from [src] to
    [dst] is about to leave, the hook may return control messages (e.g.
    distributed-GC decrements) to append to it — riding an already-paid
    routing header and launch. The hook must return messages whose
    [Am.src] is [src]; under a fault plan they enter the reliable
    channel's sequenced window like ordinary sends. [None] detaches. *)

(** {2 Schedule exploration} *)

val set_decision_source : t -> (string -> int -> int) option -> unit
(** Registers the schedule-exploration decision hook: at each named
    decision point the engine calls [decide tag bound] and acts on the
    returned value in [[0, bound)]. A return of 0 — and [None], the
    default — is the unperturbed baseline behavior. Current decision
    points: ["co.flush.delay"] (extra delay before an aggregation
    deadline check fires); ["recover.crash.jitter"] and
    ["recover.restart.jitter"] (re-timing of a scripted crash window);
    ["recover.ckpt.stagger"] (per-node checkpoint phase offset). *)

val set_tie_break : t -> (int -> int) option -> unit
(** Installs a same-timestamp tie-break on the engine event queue (see
    {!Simcore.Event_queue.set_tie_break}): wakes, frame arrivals,
    protocol timers and service timers scheduled for the same instant
    are concurrent, and the explorer perturbs their order here. Node
    inboxes have their own hook ({!Node.set_inbox_tie_break}). *)

val decide : t -> string -> int -> int
(** [decide t tag bound] consults the decision hook (0 without one, or
    when [bound <= 1]). Exposed so services layered on the engine (the
    recovery manager's crash re-timing, checkpoint staggering) can add
    decision points of their own that record and replay through the
    same choice vector as the engine's. *)

val set_node_decision_source :
  t -> (node:int -> string -> int -> int) option -> unit
(** Node-keyed variant of {!set_decision_source}: each node draws from
    its own recorded stream, so there is no shared cursor whose order
    would depend on the execution interleaving. The only decision hook
    {!run_parallel} accepts. *)

val decide_on : t -> node:int -> string -> int -> int
(** [decide_on t ~node tag bound] consults the node-keyed hook; without
    one it falls back to {!decide} (sequential runs only). *)
