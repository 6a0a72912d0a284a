(** A sharded key-value/session service tier — the open-loop traffic
    subsystem's application under test.

    The store is a set of {e shard} objects spread round-robin across
    the nodes; key [k] lives on shard [k mod shards]. Shards keep their
    table purely in [Value] state (an association list of
    [(key, value, version)] tuples), so they serialize through the
    ordinary codec and can migrate mid-run. One {e client} object per
    node fronts the store: the load generator injects operations at it,
    it scatters them to the owning shard(s), gathers replies, and
    timestamps completions into a latency histogram.

    Operations: [get]/[put]/[cas] on one key, plus a fan-out [mget]
    that scatters single-key reads at [fan] consecutive keys (distinct
    shards when [fan <= shards]) and completes when the last reply
    lands. Every [put] and winning [cas] bumps the key's version by
    exactly one, which makes end-to-end exactly-once checkable: at
    quiescence the versions summed across shards must equal the
    successful writes the clients observed ({!audit}). *)

type op = Get | Put | Cas | Mget

val op_code : op -> int
(** Wire encoding of an operation, for the injection message. *)

type stats = {
  mutable get_ok : int;
  mutable put_ok : int;
  mutable cas_ok : int;
  mutable cas_fail : int;  (** version mismatch: completed, not an error *)
  mutable mget_ok : int;
  mutable dup_resps : int;  (** replies for unknown/finished requests *)
  latency : Simcore.Histogram.t;  (** completion latency, ns *)
}

type t

val create :
  ?keys_per_shard:int ->
  ?mget_fan:int ->
  ?multiactive:bool ->
  ?ma_budget:int ->
  shards:int ->
  unit ->
  t
(** A fresh tier instance (per run). The modelled per-operation work is
    200 instructions on a shard — it sets the capacity a rate sweep
    saturates — and 30 on a client; latencies are histogrammed in 500 ns
    buckets. [keys_per_shard] (default 16) fixes the keyspace at
    [shards * keys_per_shard]. [mget_fan] (default 3) is the multi-get
    scatter width.

    [multiactive] (default false) installs compatibility declarations:
    shard [get]s form one overlapping "read" group while [put]/[cas]
    stay strictly serialized (single-writer/multi-reader shards), and
    client request/response handling overlaps freely; [ma_budget]
    (default 4) bounds concurrent activations per object. The default
    keeps every object on the paper's serialized tables, bit-identical
    to the pre-multiactive build. *)

val classes : t -> Core.Kernel.cls list
(** The shard and client classes, for [System.boot ~classes]. *)

val spawn : t -> Core.System.t -> unit
(** Creates the shard objects (round-robin across nodes) and one client
    per node. Call after boot, before traffic starts. *)

val shards : t -> int
val keyspace : t -> int
val mget_fan : t -> int
val shard_addr : t -> int -> Core.Value.addr
val client_addr : t -> node:int -> Core.Value.addr

val stats : t -> stats
(** A merged snapshot of the per-node client records (counters summed,
    latency histograms folded). Bookkeeping is kept per node so client
    handlers on different domains never share mutable state under
    {!Core.System.run_parallel}; mutating the returned record has no
    effect. *)

val p_op : Core.Pattern.t
(** The injection pattern: [tr_op(op_code, key, t0_ns, req_id)] sent at
    a client object starts one request whose completion latency is
    measured from [t0_ns]. *)

val completed : t -> int
(** Requests fully completed (all replies gathered). *)

val pending : t -> int
(** Requests started but not yet completed — at quiescence these are
    timeouts. *)

val applied_versions : t -> Core.System.t -> int
(** Versions summed over every live shard record (scanning past
    forwarding stubs if a shard migrated). *)

val audit : t -> Core.System.t -> string list
(** Quiescence invariants, one line per violation: every started
    request completed, no duplicate replies, and versions summed across
    shards equal the successful writes observed by clients — a write
    applied twice (duplicated delivery) or never (loss) breaks the
    balance. *)
