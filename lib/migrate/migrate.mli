(** Runtime object migration with forwarding mail addresses (the
    paper's Section 5.2 future work).

    A mail address stays the object's immutable canonical identity; the
    physical record moves. Migration is a three-phase protocol over
    Category-4 Service active messages — freeze at a safe point,
    serialise state + pending frames through {!Core.Codec}, reinstall on
    the target — leaving behind a forwarding-stub VFT whose every entry
    re-posts toward the new home. Per-node location caches learn new
    addresses from piggybacked updates; at install the new home
    proactively retargets every older stub, so steady-state forwarding
    chains have length at most 1.

    Guarantees (with or without a fault plan underneath): every sent
    message is dispatched exactly once at the object's final home, and
    FIFO is preserved per sender-receiver pair — enforced by
    per-[(sender node, object)] sequence stamping with a reorder gate
    that travels with the object. *)

module Policy = Policy
(** Re-export: the library's main module hides its siblings, so this is
    the public path to the policy types. *)

type t

val attach :
  ?policy:Policy.t ->
  ?interval_ns:int ->
  ?load:Services.Load.t ->
  Core.System.t ->
  t
(** Installs the migration hooks on a booted system and registers the
    three Service handlers. With [policy] and a positive [interval_ns],
    every node runs the policy once per synchronized round on that
    period (paced on the busiest node's clock; rounds stop re-arming
    once the application stops making progress). [load] supplies
    gossip-observed neighbour loads to [Load_threshold] policies —
    attach a {!Services.Load.t} (ideally with auto-gossip, see
    [rt_config.gossip_interval_ns]) and pass it here. Without it,
    neighbour loads read as unknown and load-threshold never fires.

    Attaching changes scheduling of inter-node sends (they travel as
    sequenced [M_msg] Service messages); a system without an attached
    migration subsystem is bit-identical to the seed runtime. *)

val move : t -> canon:Core.Value.addr -> to_:int -> bool
(** Manually migrate the object with the given mail address to node
    [to_]. Locates the current host by following stubs, then freezes at
    a safe point. Returns [false] when the object is already there, is
    mid-method, has a suspended context, or cannot be found. Call at
    engine level (e.g. from {!Machine.Engine.schedule_at}), never from
    inside a running method of the object itself. *)

val locate : t -> Core.Value.addr -> int
(** Current host node of the object (its canonical node if unknown). *)

(** {2 Introspection} *)

val migrations : t -> int
(** Completed freezes ("migrate.out"). *)

val forwarded : t -> int
(** Messages re-posted by forwarding stubs ("migrate.forward"). *)

val colocated_sends : t -> int
(** Sends whose remote-looking target was physically local — the
    payoff of affinity migration. *)

val stub_count : t -> node:int -> int
(** Live forwarding stubs resident on the node. *)

val max_stub_chain : t -> int
(** Structural forwarding-chain length: from every live stub, hops to
    the node actually hosting its object. The install-time update
    broadcast keeps this at <= 1 once the machine quiesces. *)

val readvertise : t -> node:int -> int
(** Crash-recovery repair: re-sends the install-time location update
    ([M_update]) for every object resident on [node] that has migrated
    at least once, to each host in its migration history. Idempotent —
    updates are epoch-guarded, so hosts that already know the epoch
    ignore them — and repairs forwarding chains (or stale caches) that
    still point through a node that died holding the original
    broadcast. Counted under the ["migrate.readvertise"] stat; returns
    the number of updates sent. *)

val residual : t -> int * int
(** [(held, limbo)] messages still parked in reorder gates / limbo
    buffers. Both must be 0 at quiescence — anything else is a lost
    message (conservation check for tests). *)

(** {2 Distributed-GC integration}

    The collector (lib/dgc) reclaims objects whose remote-reference
    count drained. For an object that migrated, that means recalling the
    record home hop by hop, then dismantling the forwarding chain it
    left behind. These entry points give the collector exactly the
    handles it needs without exposing the subsystem's tables. *)

val evict :
  t -> node:int -> canon:Core.Value.addr -> [ `Moved | `Stub of int | `Absent | `Busy ]
(** One recall step on the given node: migrate the resident object one
    hop toward its canonical home. [`Stub next] — only a forwarding stub
    lives here, chase [next]; [`Moved] — the object is now home (or the
    freeze was issued); [`Busy] — present but not at a safe point, retry
    on a later sweep; [`Absent] — no trace here. *)

val history : t -> canon:Core.Value.addr -> int list
(** Previous hosts still holding forwarding stubs for the object, read
    at its current residence. *)

val resident_epoch : t -> canon:Core.Value.addr -> int
(** The object's current migration epoch (0 if it never moved). *)

val drop_stub :
  t -> node:int -> canon:Core.Value.addr -> epoch:int -> Core.Kernel.obj option
(** Removes the node's forwarding stub for [canon], but only while its
    epoch is at most [epoch] — a newer stub belongs to a later life of
    the object and survives. Returns the removed record so the caller
    can recycle its physical slot. *)

val forget : t -> canon:Core.Value.addr -> unit
(** Erases the address from every node's sequence, cache, gate, residency
    and limbo tables. Only sound at scion zero (no surviving reference
    can stamp another message); required before the slot is reused, or
    stale sequence counters would wedge the next tenant's reorder gate.
    Stands in for the reclaim protocol's forget broadcast. *)

val parked_refs : t -> node:int -> Core.Value.t list
(** GC roots parked inside the subsystem on this node: messages held in
    reorder gates or limbo buffers (plus the addresses of the objects
    they await), invisible to an object-table trace. *)

(** {2 Internals exposed for tests} *)

val policy_tick : t -> node:int -> int
(** Runs the attached policy once on the node; returns moves made. *)
