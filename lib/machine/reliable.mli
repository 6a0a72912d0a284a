(** Reliable-delivery protocol state, sitting between the Active-Message
    layer and a faulty fabric.

    Every ordered (src, dst) node pair is a {e channel}. The sender side
    stamps each outgoing AM with a per-channel sequence number, keeps it
    buffered until acknowledged, and retransmits on a timer with
    exponential backoff (capped). The receiver side discards duplicates,
    holds out-of-order frames in a reorder buffer, and releases messages
    in sequence order — re-establishing the exactly-once per-channel FIFO
    dispatch that the rest of the runtime (mode VFTs, chunk stocks,
    termination detection) silently depends on. Acknowledgements are
    cumulative and piggybacked on reverse-direction data frames; a
    delayed-ack timer covers one-way traffic.

    This module is a passive state machine: {!Engine} owns the event
    queue and the fabric, and drives it by calling these transitions in
    virtual-time order. All state is deterministic — no clocks, no
    randomness — so seeded runs replay exactly. *)

type config = {
  window : int;  (** max unacknowledged frames per channel *)
  ack_delay_ns : int;  (** delayed standalone-ack timeout *)
  rto_ns : int;
      (** retransmission timeout before any RTT sample, and the floor of
          the per-channel adaptive estimate (smoothed RTT plus four
          deviations, RFC 6298 shape; retransmitted frames never yield
          samples, per Karn's rule) *)
  backoff : int;  (** RTO multiplier applied per retransmission *)
  max_rto_ns : int;  (** RTO ceiling *)
  max_retries : int;
      (** consecutive retransmissions of one frame before the channel is
          declared broken (raises [Failure] — silently losing a message
          would violate every invariant above) *)
}

val default_config : config
(** window 64, 20 us delayed ack, 200 us initial/minimum RTO doubling to
    a 5 ms cap on consecutive losses, 64 retries (several seconds of a
    fully-partitioned channel). The adaptive estimator tracks each
    channel's real ack round trip — including injection-port queueing
    behind send bursts — so retransmissions mean actual loss. *)

type frame = {
  fr_seq : int;  (** data sequence number; [-1] on pure-ack frames *)
  fr_ack : int;  (** cumulative ack for the reverse channel *)
  fr_data : Am.t option;  (** [None] on pure-ack frames *)
}

val frame_bytes : int
(** Wire overhead of the protocol header (sequence + ack words). *)

type t

val create : ?config:config -> nodes:int -> unit -> t

val config : t -> config

(** {2 Stable-store journal}

    Crash recovery models the protocol's sequence registers and its
    unacknowledged-message buffer as {e journaled}: a recovery manager
    registers these hooks and mirrors every mutation into simulated
    stable storage the moment it happens (pessimistic logging — the
    write is on the send/deliver path, never deferred). The protocol
    itself never reads the journal; after a crash the manager charges
    the recovering node for reconstructing exactly this state. *)

type journal = {
  j_sent : src:int -> dst:int -> seq:int -> Am.t -> unit;
      (** a message was assigned sequence number [seq] and entered the
          channel's retransmission buffer (initial send or backlog
          release) *)
  j_queued : src:int -> dst:int -> Am.t -> unit;
      (** a message joined the channel backlog (window full) *)
  j_acked : src:int -> dst:int -> base:int -> unit;
      (** the send window advanced: everything below [base] is
          acknowledged and its log entries may be pruned *)
  j_released : src:int -> dst:int -> expected:int -> unit;
      (** the receive cursor advanced: everything below [expected] was
          released in order (and will be cumulatively acked) *)
}

val set_journal : t -> journal option -> unit

(** {2 Sender side} *)

val push :
  t -> src:int -> dst:int -> now:Simcore.Time.t -> Am.t -> [ `Send of frame | `Queued ]
(** Accepts a message for transmission. If the channel window has room
    the message is sequenced, buffered for retransmission and returned
    as a frame (with the current piggybacked ack — any pending standalone
    ack for the reverse channel is suppressed); otherwise it joins the
    channel backlog and is released by future acks. *)

val note_eta :
  t -> src:int -> dst:int -> seq:int -> eta:Simcore.Time.t -> unit
(** Refines a buffered frame's arrival estimate with the fabric's answer
    (which includes injection-port queueing behind a send burst). The
    retransmission deadline counts from this estimate, and RTT samples
    measure the ack turnaround beyond it, so source-side queueing is
    never mistaken for loss. Call after transmitting a data frame; a
    no-op if the frame was acked in the meantime. *)

val on_ack : t -> src:int -> dst:int -> ack:int -> now:Simcore.Time.t -> frame list
(** Processes a cumulative ack received by [src] for its channel towards
    [dst]: forgets acknowledged frames, resets the RTO (progress), and
    returns frames the caller must transmit, in order: first, when the
    ack answered a retransmission and frames remain unacknowledged, a
    re-send of the new oldest frame (partial-ack recovery, see
    {!resent}); then backlog messages that now fit the window, already
    sequenced and buffered. *)

val timer_request : t -> src:int -> dst:int -> now:Simcore.Time.t -> Simcore.Time.t option
(** After {!push} or {!on_ack}, asks whether a retransmit-timer event
    must be scheduled for the channel. Returns the deadline at most once
    per armed period — while the returned event is pending, subsequent
    calls return [None]. *)

val on_timer :
  t ->
  src:int ->
  dst:int ->
  now:Simcore.Time.t ->
  [ `Idle | `Wait of Simcore.Time.t | `Retransmit of frame * Simcore.Time.t ]
(** Fires the channel's retransmit timer. [`Idle]: nothing unacked, stop.
    [`Wait t]: an ack moved the deadline; re-schedule at [t].
    [`Retransmit (f, t)]: resend [f] (the oldest unacked frame, carrying
    a fresh piggybacked ack) and re-schedule at [t]; the RTO has been
    backed off. Raises [Failure] after [max_retries] consecutive
    retransmissions of the same frame. *)

(** {2 Receiver side} *)

val on_data :
  t -> src:int -> dst:int -> seq:int -> Am.t -> [ `Deliver of Am.t list | `Duplicate | `Reordered ]
(** Accepts data frame [seq] on channel (src, dst). [`Deliver ams]: the
    frame was in order; dispatch [ams] (it plus any directly following
    frames released from the reorder buffer), in list order.
    [`Duplicate]: already delivered; discard (but re-ack — the previous
    ack may have been lost). [`Reordered]: buffered until the gap
    fills. *)

val ack_needed :
  t -> me:int -> peer:int -> now:Simcore.Time.t -> Simcore.Time.t option
(** Notes that channel (peer, me) owes an acknowledgement. Returns
    [Some t] if a standalone-ack timer should be scheduled at [t] (none
    was pending); reverse data before [t] will piggyback the ack and
    cancel it. *)

val on_ack_timer : t -> me:int -> peer:int -> frame option
(** Fires the delayed-ack timer: [Some frame] is the pure-ack frame to
    transmit, [None] if the ack was piggybacked in the meantime. *)

(** {2 Introspection} *)

val in_flight : t -> int
(** Messages accepted by {!push} and not yet acknowledged (buffered,
    backlogged or on the wire) across all channels. Zero at clean
    quiescence: every message the runtime sent was delivered and
    acknowledged despite the faults. *)

val reorder_buffered : t -> int
(** Frames parked in receive-side reorder buffers, waiting for an
    earlier sequence number, across all channels. Zero at clean
    quiescence — a stuck entry means a hole was never filled. *)

val channel_states : t -> (int * int * int * int * int * int) list
(** Per active tx channel, sorted: [(src, dst, next_seq, base, inflight,
    backlogged)]. At clean quiescence [base = next_seq] and the last two
    are 0 on every channel — the invariant-monitor view. *)

val take_piggyback : t -> me:int -> peer:int -> now:Simcore.Time.t -> int
(** Current cumulative ack [me] owes for traffic arriving from [peer],
    for stamping onto an outgoing data frame or batch that reaches the
    wire at [now]. Cancels (and counts as piggybacked) a pending
    standalone ack, but only when [now] is no later than that ack's
    deadline — a carrier stamped with a virtual-future time must not
    cancel the prompt standalone ack (optimistic per-node clocks). *)

val rx_expected : t -> src:int -> dst:int -> int
(** The receive cursor of channel (src, dst): the next in-order sequence
    number the receiver will release (0 for a never-used channel). The
    recovery audit compares this against the journal's released cursor —
    an acked-but-unjournaled message would be lost by a crash. *)

val resent : t -> src:int -> dst:int -> seq:int -> bool
(** Whether unacknowledged frame [seq] of channel (src, dst) has been
    transmitted more than once (by {!on_timer}, or as the partial-ack
    re-send at the head of an {!on_ack} result). The engine counts
    retransmissions; this protocol keeps no counters of its own. *)

val node_acks_piggybacked : t -> int -> int
(** Pending standalone acks a node cancelled because outgoing data (a
    frame or a flushed batch) carried the cumulative ack instead. *)
