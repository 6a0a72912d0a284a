(** The integrated stack-based + queue-based scheduler (Section 4).

    The fast path: a message sent to a {e dormant} local object invokes
    its method immediately on the OCaml stack (the paper's stack-based
    scheduling), temporarily suspending the sender. Messages to objects
    in other modes hit the queuing or restoring procedure selected by the
    receiver's current virtual function table — the sender never tests
    the receiver's mode explicitly.

    Virtual time is charged per the machine's cost model at exactly the
    points the paper charges instructions (Table 2). *)

open Kernel

val alloc_slot : node_rt -> int
(** Reserves an object slot on this node: pops the GC free list when a
    reclaimed slot is available, else bumps the watermark. *)

val recycle_slot : node_rt -> int -> unit
(** Returns a freed slot to the node's allocation pool. The caller (the
    GC) guarantees no reference to the slot survives anywhere. *)

val register_obj : node_rt -> obj -> unit

val lookup_or_embryo : node_rt -> int -> obj
(** Finds a local object by slot. For a reserved-but-unmaterialised chunk
    slot this creates the pre-initialised embryo carrying the generic
    fault table, so early messages are buffered (Figure 4). Raises
    [Invalid_argument] for a slot that was never allocated. *)

val send :
  node_rt ->
  target:Value.addr ->
  pattern:Pattern.t ->
  args:Value.t list ->
  ?reply:Value.addr ->
  unit ->
  unit
(** A past-type message send: locality check, then either local dispatch
    through the receiver's VFT or an inter-node active message. *)

val send_inlined :
  node_rt ->
  cls ->
  target:Value.addr ->
  pattern:Pattern.t ->
  args:Value.t list ->
  unit ->
  unit
(** Section 8.2 method inlining for a compile-time-known receiver class:
    if the receiver is local and its VFTP equals the class's dormant
    table, the body is entered directly, skipping the generic table
    lookup; otherwise falls back to {!send}. Enabled per-config. *)

val send_optimized :
  node_rt ->
  cls ->
  target:Value.addr ->
  pattern:Pattern.t ->
  args:Value.t list ->
  known_local:bool ->
  leaf:bool ->
  stateless:bool ->
  no_poll:bool ->
  unit ->
  unit
(** The compile-time optimisation ladder of Section 6.1: with all four
    conditions asserted the dormant fast path costs 8 instructions
    (lookup+call and return only). The flags are compiler-derived facts
    the caller asserts: [known_local] — receiver proven local (e.g. it
    follows a local creation); [leaf] — the method never sends messages
    and never blocks, so the VFTP need not be switched; [stateless] — the
    object is not history-sensitive, so the message-queue check can go;
    [no_poll] — a poll is not required here (periodic polling is
    guaranteed elsewhere). A [leaf] method that nevertheless blocks is a
    programming error and raises [Failure]. Falls back to
    {!send} whenever the receiver turns out non-local or non-dormant. *)

val local_deliver :
  ?origin:[ `Local | `Remote ] -> node_rt -> obj -> Message.t -> unit
(** Dispatches a message through the receiver's current VFT. [origin]
    only selects the statistics family ([send.local.*] vs
    [recv.remote.*]); behaviour and costs are identical, as on the real
    machine where the message handler performs the same scheduling. *)

val schedule_pending : node_rt -> obj -> unit
(** Enqueues the object into the node-global scheduling queue (idempotent
    while already queued). *)

val resume : node_rt -> blocked -> resume -> unit
(** Restores a saved context and continues its method on the current
    stack. *)

val resume_chunk_waiter : node_rt -> target:int -> unit
(** Resumes the earliest context parked on this node's empty stock for
    [target] (Section 5.2: the next chunk reply from [target] wakes it);
    a no-op when none is parked. O(1). *)

val chunk_waiter_count : node_rt -> int
(** Contexts parked on this node's empty chunk stocks, over all
    targets. Allocation-free. *)

val wait_for : node_rt -> obj -> Pattern.t list -> Message.t
(** Selective message reception: returns a matching buffered message
    without blocking when one is already queued; otherwise switches the
    object to waiting mode and suspends the method. *)

val block : node_rt -> block_reason -> resume
(** Suspends the innermost running method ([perform Block]). Raises
    [Failure] inside a [leaf]-optimised method, where no handler exists. *)

val mark_exports : node_rt -> Value.t list -> Value.addr option -> unit
(** Flags every local object whose address occurs in the given values (or
    reply destination) as exported: it can no longer be moved. *)

val maybe_preempt : node_rt -> unit
(** Preemption safe point: yields the running method to the scheduling
    queue once it has exceeded its work quantum. *)

val rest_table : obj -> vft
(** The table a quiescent object should expose: the class's dormant table
    (or init table before lazy initialisation), or the admission table
    for a class with a compatibility declaration. *)

val mode_of : obj -> string
(** Human-readable mode derived from the current VFT, for tests. *)

(** {2 Multiactive objects}

    Support for classes with a compatibility declaration
    ({!Class_def.set_multiactive}): the per-object activation manager
    and its admission bookkeeping. *)

val ma_state : obj -> ma_run
(** The object's activation manager, allocated on first use. Raises
    [Invalid_argument] for a class without a compatibility
    declaration. *)

val schedule_ma_pump : node_rt -> obj -> unit
(** Posts the group-queue pump (idempotent while one is posted): parked
    messages re-enter admission as budget and compatibility allow. *)

val ma_unsafe_force_admit : bool ref
(** Test-only corruption hook: while set, admission ignores group
    compatibility (budget and drain checks still apply), manufacturing
    exactly the serialization violations the monitor probe and the
    "ma.conflict" counter exist to catch. Never set outside tests. *)

val unsafe_leak_activation : bool ref
(** Test-only corruption hook: while set, a method that returns leaves
    its entry on the node's activation stack, the imbalance
    {!Diagnostics.survey} exists to flag. Never set outside tests. *)
