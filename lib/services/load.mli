(** A Category-4 "other services" component (Section 5.1): load
    monitoring by neighbour gossip.

    Each node can broadcast its instantaneous load (scheduling queue plus
    inbox depth) to its torus neighbours as a [Service] active message;
    peers record the last value heard. {!pick_least_for} then implements a
    locality-aware placement decision using only information locally
    available — the paper's stated basis for remote-creation placement. *)

type t

val attach : Core.System.t -> t
(** Registers the service handler on the system. Call once, before
    [System.run]. If the system's [rt_config.gossip_interval_ns] is
    positive, also arms periodic auto-gossip: every node re-broadcasts
    its load on that interval (staggered across nodes) without
    application cooperation, stopping when the machine quiesces. *)

val local_load : t -> node:int -> int

val broadcast : t -> Core.Ctx.t -> unit
(** Sends this node's load to its torus neighbours (callable from a
    method body; charged like any message send). *)

val broadcast_node : t -> node:int -> unit
(** As {!broadcast}, addressed by node id — usable outside any method
    body (timers, policies). *)

val known_load : t -> node:int -> about:int -> int
(** The last load value node [node] heard about node [about]
    (its own current load when [node = about]; 0 if never heard —
    prefer {!known_load_opt}, which keeps "never heard" distinct). *)

val known_load_opt : t -> node:int -> about:int -> int option
(** As {!known_load}, but [None] when [node] never heard from [about]. *)

val local_ma_depth : t -> node:int -> int
(** The deepest multiactive activation queue of any object on the node
    ({!Multiactive.queue_depth} maximised over residents; 0 when no
    multiactive object lives there). Distinguishes "hot because one
    serialized object is a bottleneck" (high depth) from "hot because
    the node hosts a lot of work" (high {!local_load}, zero depth):
    migrating the object helps the former, splitting the node's
    population helps the latter. *)

val known_ma_depth : t -> node:int -> about:int -> int
(** The activation-queue depth node [node] last heard gossiped by node
    [about] (own current depth when [node = about]; 0 if never heard). *)

val known_ma_depth_opt : t -> node:int -> about:int -> int option
(** As {!known_ma_depth}, but [None] when never heard. *)

val report : t -> string
(** A human-readable load report, one line per node: own load and
    activation-queue depth, then each neighbour's last-gossiped
    [load/ma_depth] pair ([?] when never heard). *)

val pick_least_for : t -> node:int -> int
(** The least-loaded node among [node] and its torus neighbours, judged
    from [node]'s gossip table. Never-heard neighbours are excluded
    (unknown is not load 0), so before any gossip arrives the pick falls
    back to [node]. Ties break toward the lower node id. *)

val deferred_placement : unit -> Core.Kernel.placement * (t -> unit)
(** A load-aware placement policy and its installer. Because placement is
    part of the boot configuration while the service attaches to the
    booted system, usage is two-phase:

    {[
      let placement, install = Load.deferred_placement () in
      let rt_config = { System.default_rt_config with placement } in
      let sys = System.boot ~rt_config ... in
      install (Load.attach sys)
    ]}

    Each creation then goes to the least-loaded of the creating node and
    its torus neighbours (per the local gossip table); before [install]
    the policy places locally. *)

val broadcasts : t -> int
(** Number of load broadcasts performed (for tests). *)
