(** Per-node crash recovery: checkpointing, pessimistic message
    logging, and restart-with-replay over {!Machine.Engine}'s crash
    mechanism.

    The manager owns one {!Store} per node and keeps three persistent
    structures in it: the application checkpoint (a snapshot taken at a
    safe point on a staggered timer), the {e delivery log} (every
    message that reached the node's inbox, with its arrival time), and
    the {e dispatch log} (the order handlers actually ran since the
    checkpoint). The reliable layer's journal hooks mirror every
    sequence-state mutation synchronously, so the protocol state is
    always persisted as-of the crash instant and is {e not} reset by a
    crash.

    On a scheduled crash the node loses its volatile state; at the
    restart instant the manager restores the snapshot (faulting it back
    from the store's cold tier if evicted), replays the dispatch log in
    recorded order with every send from the node suppressed (the
    originals are already journaled or logged), rebuilds the inbox from
    the undispatched delivery-log entries, and restarts the node as a
    new incarnation. All recovery work is charged to the node's clock.

    Application contract: all application work happens in message
    handlers (no [Engine.post] from handlers — run-queue thunks are not
    logged); bootstrap thunks only send; [a_snapshot] answers [None]
    away from safe points and the checkpoint timer retries.

    Crash instants are re-timed through the engine decision points
    ["recover.crash.jitter"] / ["recover.restart.jitter"] and installed
    as fault windows before traffic starts, so a recorded schedule
    replays every crash — including which in-flight packets die —
    bit-identically. The scripted down window must stay well inside the
    reliable layer's retry budget (64 retransmissions at up to 5 ms), or
    the peers' retransmissions give up before the node returns. *)

type app = {
  a_snapshot : int -> bytes option;
      (** serialize the node's application state, or [None] if the node
          is not at a safe point right now *)
  a_restore : int -> bytes -> unit;  (** inverse of [a_snapshot] *)
  a_reset : int -> unit;  (** wipe the node's volatile application state *)
}

type crash_spec = {
  cs_node : int;
  cs_at : Simcore.Time.t;  (** nominal crash instant (before jitter) *)
  cs_down_ns : int;  (** nominal down time *)
  cs_jitter_ns : int;  (** bound for the crash/restart re-timing draws *)
}

type t

val attach :
  Machine.Engine.t ->
  app:app ->
  crashes:crash_spec list ->
  unit ->
  t
(** Wires the recovery hooks and journal, re-times and installs the
    crash windows and takes checkpoint 0 on every node. Later
    checkpoints are activity-driven: the first delivery or dispatch
    after a snapshot arms a per-node timer 200 us (plus a
    ["recover.ckpt.stagger"] jitter) out, so safe-points follow each
    node's own event stream. A restart costs 20 us plus 2 ns per
    checkpoint byte read back; each node's store has {!Store.create}'s
    default geometry. Call after registering handlers and before posting any work. Raises
    [Invalid_argument] if the machine has no fault plan (the reliable
    layer must be live) or a crash spec is malformed. *)

val detach : t -> unit
(** Unhooks from the engine and the reliable layer (logs and stores
    survive for inspection). *)

val store : t -> int -> Store.t
(** The named node's stable store, for reports and tests. *)

val recovery_ns : t -> int -> int
(** Total simulated wall-clock the node has spent recovering. *)

val audit : t -> string list
(** Structural invariants, safe at any instant: exactly one live
    incarnation per node (crash count runs one ahead of the incarnation
    number only while down), a down node holds no inbox messages or
    queued thunks, and no journal release cursor is behind the cursor
    its last checkpoint recorded. Empty means clean. *)

val audit_quiescent : t -> string list
(** {!audit} plus the quiescence-only checks: no restart pending, no
    node down, and on every channel the receiver's acked cursor equals
    the journaled cursor (no acked-but-unlogged message). *)
