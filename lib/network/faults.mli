(** Deterministic fault injection for the message fabric.

    The paper assumes the AP1000's network "preserves transmission order"
    and never loses a message. This module describes what happens when
    that assumption is dropped: a {e fault plan} gives per-packet drop and
    duplication probabilities, an extra-delay jitter bound (applied {e
    after} the fabric's FIFO clamp, so jittered packets may genuinely
    reorder), and scripted per-node crash/recover windows during which a
    node's network interface is down (every packet to or from it is
    lost — its CPU keeps running, as the faults model the network, not
    the processor state).

    All randomness is drawn from per-(src, dst)-channel splitmix64
    streams derived arithmetically from the plan seed, so a run is a pure
    function of (plan, send sequence): the same seed gives the same fault
    pattern regardless of hashtable iteration order or unrelated
    traffic. *)

type window = {
  node : int;  (** the crashed node *)
  from_ns : Simcore.Time.t;  (** crash instant (inclusive) *)
  until_ns : Simcore.Time.t;  (** recovery instant (exclusive) *)
}

type plan = {
  seed : int;
  drop : float;  (** per-packet loss probability, in [0, 1] *)
  duplicate : float;  (** per-packet duplication probability, in [0, 1] *)
  jitter_ns : int;  (** extra delivery delay, uniform in [0, jitter_ns] *)
  crashes : window list;
}

val plan :
  ?seed:int ->
  ?drop:float ->
  ?duplicate:float ->
  ?jitter_ns:int ->
  ?crashes:window list ->
  unit ->
  plan
(** Builds a plan; every fault defaults to off and [seed] to 1.
    Raises [Invalid_argument] on probabilities outside [0, 1], negative
    jitter, or an empty crash window. *)

val is_fault_free : plan -> bool
(** No drops, duplicates, jitter or crashes: the engine treats such a
    plan exactly like no plan at all. *)

type t
(** Instantiated plan state: the per-channel random streams. *)

val create : ?nodes:int -> plan -> t
(** Instantiates the plan. With [~nodes] every per-channel stream is
    preallocated eagerly (each stream's seed is a pure function of the
    plan seed and the channel endpoints, so eager creation draws
    nothing). Without [~nodes] streams are created lazily on first
    use. *)

val set_crashes : t -> window list -> unit
(** Replaces the live crash windows. The recovery manager uses this to
    re-time scripted crashes through recorded decision points before
    traffic starts — the crash instant then replays from the choice
    vector rather than from raw randomness. Only sound before any
    packet whose fate depends on the old windows has been sent.
    Raises [Invalid_argument] on an empty window or a negative node. *)

val crashed : t -> node:int -> at:Simcore.Time.t -> bool
(** Is [node]'s network interface down at time [at]? *)

type fate = {
  f_drop : bool;
  f_duplicate : bool;
  f_jitter : int;  (** extra delay for the (first) delivered copy *)
  f_dup_jitter : int;  (** extra delay of the duplicate beyond the first *)
}

val fate : t -> src:int -> dst:int -> fate
(** Draws the next per-packet fate from the (src, dst) channel stream.
    Crash windows are {e not} consulted here — they depend on the send
    and arrival times, which only the fabric knows. *)
