(** The message fabric: computes delivery times for packets on the torus.

    The model captures the AP1000 characteristics the paper relies on:
    - a fixed hardware launch/receive latency per packet,
    - a small per-hop routing delay,
    - finite link bandwidth (25 MB/s on the AP1000) applied to the whole
      wire size, with the source injection port serialising back-to-back
      sends,
    - preservation of transmission order for each (src, dst) pair.

    Cross-traffic contention inside the fabric is off by default (the
    paper's measurements are taken on an unloaded network) but can be
    enabled: each directed link along the dimension-order route is then a
    resource a packet occupies for its transmission time, pipelined
    virtual-cut-through style.

    A {!Faults.plan} turns the perfect network into a lossy one: packets
    may be dropped, duplicated, jittered past the FIFO clamp (and so
    reordered), or lost to scripted node crash windows. {!send} is
    untouched by the plan; only {!send_flaky} consults it, so fault-free
    users pay nothing. *)

type config = {
  hw_launch_ns : int;  (** fixed hardware cost to launch + sink a packet *)
  per_hop_ns : int;  (** routing delay per torus hop *)
  bytes_per_us : int;  (** link bandwidth, bytes per microsecond *)
  contention : bool;
      (** model per-link occupancy along the dimension-order route
          (virtual cut-through); off by default — the paper's
          measurements are on an unloaded network *)
}

val default_config : config
(** AP1000-like: 25 MB/s links, 450 ns launch, 20 ns per hop. *)

type 'a t

val create : ?config:config -> ?faults:Faults.plan -> Topology.t -> 'a t

val topology : 'a t -> Topology.t

val config : 'a t -> config

val faults_state : 'a t -> Faults.t option
(** The live fault state, if a plan was configured. Exposed so a
    recovery manager can re-time crash windows ({!Faults.set_crashes})
    through recorded decision points before traffic starts. *)

val transit_time : 'a t -> 'a Packet.t -> Simcore.Time.t
(** Pure fabric time for a packet, ignoring queueing: launch + hops +
    transmission. Transmission time rounds {e up} to the bandwidth
    granularity — a partial flit occupies the link for a whole cycle —
    so small packets are never under-charged. *)

val send : 'a t -> now:Simcore.Time.t -> 'a Packet.t -> Simcore.Time.t
(** [send t ~now p] registers the packet as injected at [now] and returns
    its delivery time at the destination node. Guarantees:
    - delivery > now,
    - per-(src, dst) deliveries are strictly increasing in send order,
    - back-to-back injections from one node serialise at link bandwidth. *)

val send_flaky :
  'a t -> now:Simcore.Time.t -> 'a Packet.t -> Simcore.Time.t * Simcore.Time.t list
(** Like {!send}, but subject to the fault plan: returns the packet's
    fault-free arrival estimate (what {!send} would have answered — the
    time the packet clears the injection queue and reaches the
    destination, useful for anchoring retransmission timeouts) together
    with every actual delivery time — [[]] if it was dropped (randomly
    or because an endpoint is inside a crash window), one element
    normally, two if the network duplicated it. Jitter is added {e
    after} the FIFO clamp, so the delivery times may interleave
    arbitrarily with other packets on the same channel. Without a fault
    plan the arrivals are exactly [[send t p]]. *)

val send_control :
  'a t -> now:Simcore.Time.t -> 'a Packet.t -> Simcore.Time.t * Simcore.Time.t list
(** Protocol-autonomous send: the packet takes {!transit_time} and is
    subject to the fault plan, but does {e not} occupy the injection port
    or a channel-FIFO slot. For control frames (acknowledgements,
    retransmissions) emitted by the network interface at engine-event
    times: those instants can interleave with an optimistic node slice
    whose clock — and whose data packets' fabric timestamps — already ran
    far ahead, and serialising behind that virtual-future traffic would
    turn every delayed ack into a spurious peer retransmission. The
    reliable layer tolerates the resulting control/data reordering by
    construction. *)

val injection_idle : 'a t -> node:int -> now:Simcore.Time.t -> bool
(** Whether [node]'s injection port is free at [now] — i.e. a packet
    injected now would start transmitting immediately instead of
    queueing behind an earlier send. Aggregation layers use this to
    decide between sending a lone frame at once and opening a batch. *)

val transmission_ns : 'a t -> int -> Simcore.Time.t
(** Link occupancy of [bytes] at the configured bandwidth, rounded up
    to the flit granularity (the same rule {!send} charges). Exposed so
    multi-frame packets can stagger per-frame delivery cut-through
    style without re-deriving the bandwidth model. *)

val min_remote_latency : 'a t -> Simcore.Time.t
(** Smallest possible [arrival - now] {!send} can produce for a packet
    whose destination differs from its source: the transmission time of
    a bare header plus the hardware launch cost plus one hop. Queueing
    (injection port, channel FIFO) only increases arrivals, so this is
    a sound conservative lookahead for parallel simulation: events a
    node creates at another node always land at least this far in that
    node's future. *)

val packets_sent : 'a t -> int

val bytes_sent : 'a t -> int

val packets_dropped : 'a t -> int
(** Packets (or duplicate copies) lost by {!send_flaky}. *)

val packets_duplicated : 'a t -> int

val crash_dropped : 'a t -> int
(** Of {!packets_dropped}, the losses caused by a crash window rather
    than a random drop draw (a random draw that would also have hit a
    crash window counts as random). *)

val channel_entries : 'a t -> int
(** Number of live per-channel bookkeeping entries (FIFO watermarks plus
    link-occupancy records). Grows with the set of channels ever used;
    {!reset} reclaims it between runs of a long sweep. *)

val reset : 'a t -> unit
(** Forgets all queueing state (per-channel FIFO watermarks, link and
    injection-port occupancy) and zeroes the traffic counters, returning
    the fabric to its just-created state. Only sound at a quiescent
    instant — with packets in flight it would let later sends overtake
    them. *)
