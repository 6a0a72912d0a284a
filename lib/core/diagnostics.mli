(** Post-run diagnostics: what is the system waiting for?

    When a program quiesces with work undone (an awaited message never
    sent, an acknowledgement lost to a retired object), the machine simply
    runs out of events. This module surveys the residue so the failure is
    explainable: suspended contexts and their reasons, messages still
    buffered, objects stuck in the scheduling queue. *)

type stuck = {
  addr : Value.addr;
  cls_name : string;  (** "<chunk>" for an uninitialised embryo *)
  mode : string;  (** VFT kind currently exposed *)
  waiting_for : string option;  (** block reason, if a context is parked *)
  queued_messages : int;
}

type report = {
  blocked : stuck list;  (** objects holding a suspended context *)
  buffered : stuck list;  (** quiescent objects with unconsumed messages *)
  chunk_waiters : int;  (** contexts stalled on empty chunk stocks *)
  stock_refills : int;
      (** chunk replies that replenished a requester's stock over the run
          (the "chunk.refill" counter, summed over nodes) *)
  stock_low_water : int;
      (** smallest per-target stock size any requester ever observed — 0
          means some stock drained completely at least once *)
  in_flight : int;
      (** messages sent but never acknowledged by the reliable-delivery
          layer (always 0 without a fault plan). Nonzero at quiescence
          means the network lost messages for good — retransmission gave
          up or the run was cut short. *)
  packets_dropped : int;
      (** packets the fault layer destroyed during the run (these were
          all repaired by retransmission iff [in_flight] is 0) *)
  batches_sent : int;
      (** aggregated multi-frame packets shipped over the run
          ({!Machine.Coalesce.stats} [s_batches]; 0 with coalescing
          off) *)
  coalesce_buffered : int;
      (** messages still sitting in open aggregation buffers at survey
          time — nonzero at quiescence means a flush trigger never
          fired, and counts against {!is_clean} *)
  crashes : int;
      (** node crashes injected over the run (the "recover.crashes"
          counter; 0 without a recovery manager) *)
  checkpoint_bytes : int;
      (** checkpoint volume written to the stable stores
          ("recover.ckpt_bytes") *)
  log_replayed : int;
      (** messages re-dispatched from delivery logs during recoveries
          ("recover.replayed") *)
  recovery_ns : int;
      (** total simulated wall-clock spent restoring and replaying
          ("recover.recovery_ns") *)
  forwarding_stubs : (int * int) list;
      (** (node, live forwarding stubs) — objects that migrated away and
          left a re-posting VFT behind. Healthy residue, not counted
          against {!is_clean}; nonzero entries only. *)
  forwarded_hops : (int * int) list;
      (** (node, messages re-posted by stubs on that node) over the run —
          from the "migrate.forward.node<i>" counters. Chain-compression
          checks assert this stays near the migration count. *)
  unbalanced : (int * int * int) list;
      (** (node, stack depth, open activations) for every node whose
          invocation bookkeeping did not return to zero: at quiescence
          no method runs, so a nonzero depth or activation-stack entry
          is a scheduler bug. Counts against {!is_clean}. *)
}

val survey : System.t -> report

val is_clean : report -> bool
(** No suspended contexts, no buffered messages, no stalled requesters,
    no message still unacknowledged by the reliable layer, no message
    stranded in an aggregation buffer, and no node with unbalanced
    invocation bookkeeping. *)

val pp : Format.formatter -> report -> unit
