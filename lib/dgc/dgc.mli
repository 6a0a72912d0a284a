(** Distributed garbage collection for [(node, pointer)] mail addresses.

    Weighted reference counting with indirection entries: the owner node
    keeps a {e scion} (net weight handed out) per exported object, every
    holder keeps a {e stub} with part of that weight, and copying an
    address splits weight locally — no communication on the mutator
    path. Weight refunds travel as batched decrement messages over the
    ordinary (reliable-delivery-capable) active-message fabric. When a
    scion drains, the object is freed by the next local sweep; if it had
    migrated it is first recalled home and its forwarding chain is
    dismantled. Freed slots are quarantined for one sweep round, then
    pushed back into the node's allocation pool — the same pool the
    chunk-stock replenishment path draws from, so collection {e is} the
    stock refill path.

    Attach at boot, before any address crosses a node boundary:
    references exported earlier carry no weight and are repaired lazily
    via debit messages, which weakens the accounting until they land.

    Limitation: reference counting cannot collect cross-node {e cycles}
    of garbage; acyclic structures (the common case for actor programs)
    are collected fully. See DESIGN.md. *)

type t

val attach :
  ?migrate:Migrate.t ->
  ?interval_ns:int ->
  ?grant_weight:int ->
  Core.System.t ->
  t
(** Installs the reference-tracking hooks ([Kernel.shared.gc]) and
    registers the four Service handlers (decrement, debit, recall,
    unstub). [migrate] enables reclamation of migrated objects and their
    forwarding stubs. With a positive [interval_ns] every node sweeps
    once per synchronized round on that period (paced on the busiest
    node's clock; rounds stop re-arming after the application and the
    collector both go quiet). [grant_weight] (default 64, minimum 2) is
    the weight minted per export — small values exercise the
    weight-split / indirection machinery, large values postpone it. *)

val detach : t -> unit
(** Removes the reference-tracking hooks: subsequent exports and imports
    are untracked, so no further scion can drain. For experiments that
    compare against unmanaged growth. *)

(** {2 Collection driving} *)

val sweep : t -> node:int -> Services.Local_gc.sweep_outcome
(** One collection round on the node: release quarantined slots to the
    allocator, run {!Services.Local_gc.sweep} with this collector's
    hooks (scion-exact remote liveness, migration gate roots), reclaim
    unreferenced stubs, recall drained migrated objects, flush batched
    decrements, and quarantine this round's freed slots. Call at engine
    level on a node not currently dispatching. *)

val sweep_all : t -> unit
(** {!sweep} on every node. *)

val settle : t -> unit
(** Alternates {!sweep_all} with [System.run] until a full round makes
    no collector progress (or after 16 rounds). Distributed
    reclamation cascades — decrement, stub release, recall, unstub,
    restock — so a single sweep is rarely enough to reach the fixpoint. *)

(** {2 Introspection} *)

val reclaimed : t -> int
(** Objects freed by sweeps ("dgc.reclaimed"). *)

val stubs_freed : t -> int
(** Remote-reference stub entries reclaimed ("dgc.stubs_freed"). *)

val restocked : t -> int
(** Freed slots returned to allocation pools ("dgc.restocked"). *)

val recalls : t -> int
(** Recall-home requests issued for drained migrated objects. *)

val unstubs : t -> int
(** Forwarding stubs dismantled after their object was freed. *)

val scion_weight : t -> node:int -> slot:int -> int
(** Net weight the owner believes is outstanding for its local [slot]
    (0 when never exported; transiently negative under a debit race). *)

val has_stub : t -> node:int -> canon:Core.Value.addr -> bool

val resident_objects : t -> node:int -> int
(** Object-table population of the node (records of any kind). *)

val audit : t -> string list
(** Conservation check, meaningful only at quiescence (empty networks,
    all manifests imported): for every canonical address, owner scion
    must equal the sum of holder weights plus pending batched
    decrements, and indirections out must match indirections from plus
    pending releases. Returns one description per violation; [[]] means
    the counts balance. *)

val recovery_audit : t -> node:int -> string list
(** Node-local structural audit, valid at {e any} instant (no global
    quiescence needed): every stub weight and indirection-out count on
    the node is non-negative, indirection-backer records are non-empty,
    and every scion weight is non-negative (a restarted node holds no
    half-applied debit, so the transient-negative excuse does not
    apply). The recovery manager runs this when a node rejoins after a
    crash; {!audit} still gives the global conservation verdict at
    quiescence. *)

(** Deliberate state corruption, exclusively for tests that prove the
    audit catches broken invariants. *)
module Testing : sig
  val forge_stub_weight :
    t -> node:int -> canon:Core.Value.addr -> int -> unit
  (** Adds the given delta to the node's stub weight for [canon],
      breaking weight conservation on purpose. Raises [Invalid_argument]
      if the node holds no stub for the address. *)
end
