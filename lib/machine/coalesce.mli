(** Per-destination aggregation of outgoing frames.

    Sits between the active-message layer and the fabric (or the
    reliable layer's framing, when a fault plan is live): each node
    keeps one open buffer per destination, appends outgoing frames to
    it, and flushes the buffer as a single multi-frame packet — one
    routing header, one hardware launch — when a threshold, idle,
    deadline, ack or credit trigger fires.

    The module is a passive state machine over abstract frames ['a]
    (bare {!Am.t} on a perfect network, {!Reliable.frame} under a fault
    plan): the engine owns all clocks, events and fabric calls and asks
    this module only for verdicts and bookkeeping. A frame offered to an
    empty buffer while the source injection port is idle bypasses
    aggregation entirely, keeping the single-message latency path
    bit-identical to the unbatched build. A buffer flushes on the size
    threshold when it reaches 512 wire bytes or 16 frames. *)

type config = {
  max_delay_ns : int;  (** age bound for buffers on a busy node *)
  credits : int;
      (** per-channel flow control: max batches (or bypass singles)
          outstanding — flushed but not yet landed — per destination *)
}

val default_config : config
(** 5 us / 4 credits. *)

type 'a t

val create : ?config:config -> nodes:int -> unit -> 'a t
val config : 'a t -> config

(** Why a buffer was flushed (recorded per flush for diagnostics). *)
type cause = Size | Idle | Deadline | Ack | Credit

type verdict =
  [ `Bypass  (** send alone now: empty buffer, idle port, credit held *)
  | `Opened  (** buffered into a fresh buffer: arm a deadline event *)
  | `Buffered  (** appended to an already-open buffer *)
  | `Threshold  (** appended and the size/frame threshold tripped: flush *)
  ]

val offer :
  'a t ->
  src:int ->
  dst:int ->
  now:Simcore.Time.t ->
  bytes:int ->
  port_free:bool ->
  'a ->
  verdict
(** Routes one outgoing frame. [bytes] is the frame's wire size inside
    a batch (payload plus per-frame batch header). On [`Bypass] the
    frame was {e not} stored (a credit was consumed and the single
    counted); every other verdict stored it. *)

val take :
  'a t -> src:int -> dst:int -> ('a list * int * Simcore.Time.t) option
(** Closes the open buffer: returns the frames in append order, their
    total wire bytes, and the newest append timestamp (the causality
    floor for the flush instant). Consumes one credit. [None] if the
    buffer is empty, or if no credit is available — the channel is then
    marked starved and {!credit_return} will answer [`Flush] when a
    credit comes back. *)

val note_batch : 'a t -> src:int -> frames:int -> riders:int -> cause:cause -> unit
(** Records a shipped batch: [frames] total frames on the wire (buffer
    contents plus piggybacked riders), [riders] of which were appended
    by the flush-time piggyback hook. *)

val deadline_check :
  'a t -> src:int -> dst:int -> now:Simcore.Time.t ->
  [ `Flush | `Rearm of Simcore.Time.t | `Idle ]
(** Resolves a fired deadline event: flush the buffer, re-arm for a
    buffer that was reopened since the event was scheduled, or stand
    down if nothing is buffered. *)

val credit_return : 'a t -> src:int -> dst:int -> [ `Flush | `Idle ]
(** A previously flushed batch landed. [`Flush] iff a flush was parked
    waiting for this credit. *)

val has_open : 'a t -> src:int -> dst:int -> bool

val open_dsts : 'a t -> src:int -> int list
(** Destinations with open buffers for [src] (for the scheduler-idle
    flush), compacting internal bookkeeping as a side effect. *)

val buffered : 'a t -> int
(** Total frames currently buffered across all channels (0 at
    quiescence: every buffer drains through idle or deadline flushes). *)

val reset_src : 'a t -> src:int -> unit
(** Crash handling: forgets everything buffered by [src] and refills its
    channel credits. Safe under a fault plan because frames are
    sequenced into the reliable layer before being buffered here — the
    retransmission path re-sends them; on a perfect network this would
    lose messages, so only the recovery manager (which requires a fault
    plan) calls it. *)

(** {2 Statistics} *)

type stats = {
  s_batches : int;  (** multi-frame packets shipped *)
  s_singles : int;  (** bypass sends *)
  s_frames : int;  (** frames shipped inside batches *)
  s_riders : int;
      (** control AMs the piggyback hook handed to departing batches
          (under a fault plan, a rider that finds the window full waits
          in the reliable backlog instead of riding) *)
  s_flush_size : int;
  s_flush_idle : int;
  s_flush_deadline : int;
  s_flush_ack : int;
  s_flush_credit : int;
  s_buffered : int;
  s_occupancy : Simcore.Histogram.t;  (** frames per batch *)
}

val stats : 'a t -> stats
