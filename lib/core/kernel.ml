(** Core type knot of the ABCL runtime.

    The object representation follows Figure 2 of the paper: a state
    variable box, a message queue of heap-allocated frames, and a virtual
    function table pointer (VFTP) that is switched between multiple
    per-class tables as the object changes mode. Method bodies run on the
    OCaml stack; a body that blocks performs the {!Block} effect, and the
    captured one-shot continuation is the paper's lazily heap-allocated
    context frame. *)

(** One entry of a virtual function table. The paper compiles each entry
    to a tiny procedure (method body / queuing procedure / context
    restoration routine); we represent the three behaviours symbolically
    and charge the same costs when interpreting them. *)
type entry =
  | Invoke of methd  (** dormant mode: execute the method body now *)
  | Invoke_init of methd
      (** dormant, state variables not yet initialised: run the lazy
          initialisation routine, then the body (Section 4.2) *)
  | Enqueue  (** active / fault / non-awaited: buffer into the queue *)
  | Restore  (** waiting mode, awaited pattern: restore saved context *)
  | Forward
      (** forwarding-stub mode: the object migrated away; re-post the
          message to its new home. Reuses the multiple-VFT trick so the
          sender never tests for "moved" — dispatch just does it. *)
  | Ma_admit of { impl : methd; group : int }
      (** multiactive mode: admit the message into the object's running
          activation set when its compatibility group permits, else
          enqueue it on the group's FIFO queue. As with every other
          table, the sender never tests receiver state — the admission
          control {e is} the dispatch entry. *)
  | No_method  (** pattern not understood by this class *)

and vft = {
  entries : entry array;  (** indexed by pattern id *)
  default : entry;  (** behaviour for ids beyond [entries] *)
  vft_kind : vft_kind;
}

and vft_kind =
  | Vft_dormant
  | Vft_init
  | Vft_active
  | Vft_waiting of Pattern.t list
  | Vft_fault  (** generic fault table of uninitialised remote chunks *)
  | Vft_forward of fwd
      (** forwarding mail address left behind by object migration *)
  | Vft_multiactive
      (** compatibility-group admission table: replaces the
          dormant/active pair for classes with a declared [ma_spec] *)

(** The forwarding state of a migrated-away object. [fwd_canon] is the
    object's mail address (immutable, Section 5.2 — the identity every
    sender holds); [fwd_to] is the best-known current physical address
    and is retargeted by migration updates so chains compress to one
    hop; [fwd_epoch] orders updates (one migration = one epoch). *)
and fwd = {
  fwd_canon : Value.addr;
  mutable fwd_to : Value.addr;
  mutable fwd_epoch : int;
}

and methd = ctx -> Message.t -> unit

and cls = {
  cls_id : int;
  cls_name : string;
  state_names : string array;
  cls_init : Value.t list -> Value.t array;
      (** constructor arguments -> initial state variable box *)
  methods : (Pattern.t * methd) list;
  mutable tbl_dormant : vft option;  (** built lazily, cached *)
  mutable tbl_init : vft option;
  waiting_cache : (Pattern.t list, vft) Hashtbl.t;
  mutable cls_ma : ma_spec option;
      (** compatibility declaration; [None] keeps the class on the
          paper's strictly serialized dormant/active tables *)
  mutable tbl_ma : vft option;  (** the admission table, built lazily *)
}

(** A class's compatibility declaration. Methods in the same group, or
    in groups marked compatible, may run concurrently on one object;
    every other pair strictly serializes (sequential-by-default, after
    Henrio & Rochas' multiactive objects). *)
and ma_spec = {
  ma_budget : int;  (** bound on concurrent activations per object *)
  ma_group_names : string array;
  ma_group_of : (Pattern.t * int) list;  (** every method -> its group *)
  ma_compat : bool array array;
      (** symmetric; [ma_compat.(g).(g)] is true only for declared
          groups — methods left out of the declaration get an implicit
          singleton group that is incompatible even with itself *)
}

(** Per-object activation manager, allocated lazily at first admission.
    [mar_running] counts live activations per group; admission requires
    compatibility with {e every} non-empty group and a free budget
    slot. Messages that fail admission park on their group's FIFO
    queue and are pumped back in when an activation completes. *)
and ma_run = {
  mar_running : int array;
  mutable mar_count : int;
  mar_queues : (int * Message.t) Queue.t array;
      (** messages stamped with their admission-arrival sequence, so
          the pump can default to oldest-head-first across groups
          (starvation freedom) while staying FIFO within each group *)
  mutable mar_queued : int;
  mutable mar_seq : int;  (** next arrival stamp *)
  mutable mar_pump_posted : bool;
  mutable mar_draining : bool;
      (** migration freeze in progress: admit nothing, let the running
          set empty out, then fire [mar_on_drained] *)
  mutable mar_on_drained : (unit -> unit) option;
  mutable mar_peak : int;  (** high-water mark of [mar_count] *)
  mutable mar_admitted : int;  (** total activations ever admitted *)
}

and obj = {
  mutable self : Value.addr;  (** mutable only for local-GC relocation *)
  mutable phys_slot : int;
      (** slot in the hosting node's object table. Equal to [self.slot]
          until the object migrates; after migration [self] stays the
          birth mail address while [phys_slot] tracks the current home. *)
  mutable cls : cls option;  (** [None] while an uninitialised chunk *)
  mutable state : Value.t array;
  mutable vftp : vft;
  mq : Message.t Queue.t;
  mutable in_sched_q : bool;
  mutable blocked : blocked option;
      (** a context parked on this object: its own blocked method
          (selective reception) or, for reply destinations, the waiting
          sender's context *)
  mutable initialized : bool;
  mutable pending_ctor_args : Value.t list;
      (** constructor arguments awaiting the lazy initialisation *)
  mutable exported : bool;
      (** its address has left this node (in a remote message, creation
          argument or reply destination); a [(node, pointer)] mail
          address pins such an object in place — Section 5.2 *)
  mutable gc_pinned : bool;
      (** a GC root: bootstrap objects and anything the embedding holds
          an address to outside the heap (test drivers). Never swept. *)
  mutable ma : ma_run option;
      (** activation manager; [None] until the first multiactive
          admission (and again after migration ships the object away) *)
}

and blocked = {
  bk : (resume, unit) Effect.Deep.continuation;
  owner : obj;  (** object whose method is suspended *)
  bgroup : int;
      (** compatibility group of the suspended multiactive activation;
          -1 for a serialized method *)
  why : block_reason;  (** what the context is waiting for (diagnostics) *)
}

and resume =
  | R_go  (** plain resumption (preemption, chunk-stock refill) *)
  | R_reply of Value.t  (** a now-type reply value *)
  | R_msg of Message.t  (** an awaited message (selective reception) *)

and block_reason =
  | Wait_reply of obj  (** the reply-destination object *)
  | Wait_patterns of Pattern.t list
  | Wait_chunk of int  (** waiting for a chunk on this node *)
  | Preempted

and ctx = { rt : node_rt; self_obj : obj }

and sched_kind =
  | Hybrid  (** the paper's integrated stack + queue scheduling *)
  | Naive  (** always buffer + schedule through the queue (Section 6.3) *)

and placement =
  | Round_robin  (** cycle over all nodes, starting after this one *)
  | Neighbor_round_robin
      (** cycle over this node and its torus neighbours: a simple
          locality-preserving policy "based on local information" *)
  | Random_node
  | Self_node
  | Fixed_node of int
  | Custom_policy of (int -> int)
      (** maps the creating node's id to a target (e.g. load-aware
          placement built from the gossip service) *)

and rt_config = {
  sched_kind : sched_kind;
  max_stack_depth : int;
      (** stack-invocation depth beyond which sends are buffered; models
          the preemption of deep recursions *)
  quantum_instr : int;
      (** accumulated work (in instructions) after which a running method
          is preempted at its next safe point *)
  stock_size : int;  (** chunks pre-delivered per (requester, target) pair *)
  placement : placement;
  discard_unacceptable : bool;
      (** alternative selective-reception semantics (Section 4.2):
          discard rather than buffer non-awaited messages *)
  codec_check : bool;
      (** round-trip every inter-node message through the binary wire
          codec, verifying serialisability (testing aid) *)
  gossip_interval_ns : int;
      (** when > 0, every node broadcasts its load to its torus
          neighbours on this period (virtual ns) without application
          cooperation, so placement/migration policies see fresh load.
          0 (the default) keeps gossip strictly hand-driven. *)
  ma_cores : int;
      (** worker threads a node devotes to overlapped activations of one
          multiactive object: while [j] activations overlap, charged
          instructions scale by [1 / min j ma_cores]. Irrelevant (scale
          stays 1) unless some class declares compatibility. *)
}

(** Hooks installed by the object-migration subsystem ([lib/migrate]).
    [None] (the default) keeps every send/dispatch path bit-identical to
    the migration-free runtime; the hooks take over only the cases
    migration introduces. *)
and migration = {
  mig_send : node_rt -> Value.addr -> Message.t -> unit;
      (** takes over a remote send: location-cache resolution, per
          (sender node, object) FIFO sequencing, transmission *)
  mig_forward : node_rt -> obj -> Message.t -> unit;
      (** a local dispatch reached a forwarding stub *)
  mig_gate_local : node_rt -> obj -> Message.t -> bool;
      (** local delivery to a physically present object: returns [true]
          iff the message was captured by the FIFO reorder gate (earlier
          sequenced messages from this node are still in flight) *)
  mig_retire : node_rt -> obj -> unit;
      (** the object retired; drop migration-side state *)
}

(** Hooks installed by the distributed garbage collector ([lib/dgc]).
    [None] (the default) keeps messages manifest-free and every send
    path bit-identical to the GC-free runtime. *)
and gc = {
  gc_grant : node_rt -> Value.t list -> Value.addr option -> Message.gc_ref list;
      (** addresses in a payload are leaving this node: split reference
          weights (owner-side: mint them) and build the wire manifest *)
  gc_accept : node_rt -> Message.gc_ref list -> unit;
      (** a manifest arrived with a message this node takes custody of:
          credit the local stub/scion tables *)
  gc_conjure : node_rt -> Value.addr -> Message.gc_ref;
      (** remote creation conjured [addr] at a pre-reserved chunk: build
          the creator's counted claim. The owner's matching mint is
          applied by [gc_conjured] when the creation request itself is
          processed — the mint must ride the (FIFO) creation message,
          not a separate debit, or a sweep landing between the two
          frees the newborn under its creator's reference *)
  gc_conjured : node_rt -> int -> unit;
      (** the owner-side mint for a conjured chunk: credit [slot]'s
          scion with the weight [gc_conjure] claimed *)
}

and shared = {
  machine : Machine.Engine.t;
  classes : (int, cls) Hashtbl.t;  (** registry keyed by [cls_id] *)
  enqueue_all : vft;  (** the shared active-mode table *)
  fault_tbl : vft;  (** the generic fault table *)
  h_obj_msg : int;  (** AM handler ids *)
  h_create : int;
  h_chunk : int;
  config : rt_config;
  reply_cls : cls;
  ctrs : counters;  (** cached statistics cells (hot path) *)
  mutable migration : migration option;
      (** installed by [Migrate.attach]; [None] means no object ever
          moves and all migration branches are dead *)
  mutable gc : gc option;
      (** installed by [Dgc.attach]; [None] means no reference weights
          are ever tracked and exported objects are immortal *)
}

(** Statistics counters resolved once at boot, so hot paths increment a
    ref instead of hashing a string. The cells live in the machine's
    [Stats.t], keeping all reporting uniform. *)
and counters = {
  sent_local : origin_counters;  (** local sends: "send.local.*" *)
  recv_remote : origin_counters;  (** remote receipts: "recv.remote.*" *)
  c_send_remote : Simcore.Stats.cell;
  c_create_local : Simcore.Stats.cell;
  c_create_remote : Simcore.Stats.cell;
  c_create_remote_applied : Simcore.Stats.cell;
  c_chunk_refill : Simcore.Stats.cell;
  c_chunk_stall : Simcore.Stats.cell;
  c_slot_recycled : Simcore.Stats.cell;
  c_preempt : Simcore.Stats.cell;
  c_wait_blocked : Simcore.Stats.cell;
  c_wait_immediate : Simcore.Stats.cell;
  c_reply_immediate : Simcore.Stats.cell;
  c_reply_blocked : Simcore.Stats.cell;
  c_reply_no_dest : Simcore.Stats.cell;
  c_ma_admit : Simcore.Stats.cell;  (** activations admitted (immediately or pumped) *)
  c_ma_queued : Simcore.Stats.cell;  (** messages parked on a group queue *)
  c_ma_overlap : Simcore.Stats.cell;  (** admissions that joined a running set *)
  c_ma_conflict : Simcore.Stats.cell;
      (** incompatible overlaps — must stay 0; only the test-only
          forced-admission hook can make it move *)
}

and origin_counters = {
  o_dormant : Simcore.Stats.cell;
  o_active : Simcore.Stats.cell;
  o_fault : Simcore.Stats.cell;
  o_restore : Simcore.Stats.cell;
  o_discarded : Simcore.Stats.cell;
  o_naive_buffered : Simcore.Stats.cell;
  o_depth_limited : Simcore.Stats.cell;
  o_inlined : Simcore.Stats.cell;
}

and node_rt = {
  shared : shared;
  node : Machine.Node.t;
  objects : (int, obj) Hashtbl.t;
  mutable next_slot : int;  (** watermark of allocated/reserved slots *)
  free_slots : int Queue.t;
      (** slots reclaimed by the GC, preferred by {!Sched.alloc_slot}
          over bumping the watermark — reclamation feeds both local
          creation and the chunk-stock replenishment path *)
  mutable slots_recycled : int;  (** free-list pops (allocation reuse) *)
  stocks : int Queue.t array;  (** per target node: pre-delivered slots *)
  mutable stock_low_water : int;
      (** smallest stock depth ever observed for any target on this
          node; [stock_size] until the first take *)
  mutable chunk_waiters : blocked Queue.t array;
      (** per target node: contexts parked on its empty stock, oldest
          first; empty until the node first stalls, so boot does not pay
          for [p] queues per node. Only {!Sched} touches them. *)
  mutable preempt_pending : int;
      (** preemption resumes posted but not yet run; their captured
          continuations hold stack references no sweep can trace *)
  mutable rr_cursor : int;  (** round-robin placement cursor *)
  mutable depth : int;  (** current stack-invocation depth *)
  mutable leaf_depth : int;
      (** >0 while a [leaf]-optimised method runs (blocking forbidden) *)
  mutable work_since_yield : int;  (** instructions since last yield *)
  scratch : Buffer.t;
      (** per-node codec scratch: the send path encodes into this one
          reused buffer instead of allocating per message *)
  rng : Simcore.Rng.t;
  mutable ma_scale : int;
      (** instruction-charge divisor while inside an overlapped
          multiactive activation; 1 everywhere else, so the serialized
          runtime is bit-identical to the pre-multiactive build *)
  mutable fiber_handler : (unit, unit) Effect.Deep.handler option;
      (** the one effect handler every method fiber on this node runs
          under, built by {!Sched} at the node's first invocation *)
  mutable act_objs : obj array;
  mutable act_groups : int array;
  mutable act_len : int;
      (** the activation stack: one [(object, group)] entry per method
          fiber currently on this node's stack, innermost at
          [act_len - 1] (group -1 for a serialized invocation). It tells
          the shared handler which object finished or blocked. Empty
          arrays until the first invocation; only {!Sched} touches it. *)
}

type _ Effect.t += Block : block_reason -> resume Effect.t

exception Not_understood of { cls_name : string; pattern : Pattern.t }

(* --- small helpers shared by the behavioural modules --- *)

let machine rt = rt.shared.machine
let cost rt = Machine.Engine.cost rt.shared.machine
let stats rt = Machine.Engine.stats rt.shared.machine
let charge rt instructions =
  (* Overlapped multiactive activations model [ma_scale] worker threads
     sharing the node: wall-clock per instruction divides by the overlap
     degree (ceiling division, so cost never rounds to zero). *)
  let n =
    if rt.ma_scale > 1 then (instructions + rt.ma_scale - 1) / rt.ma_scale
    else instructions
  in
  Machine.Engine.charge rt.shared.machine rt.node n

let charge_work rt instructions =
  charge rt instructions;
  rt.work_since_yield <- rt.work_since_yield + instructions;
  (* Interrupt-mode deliveries are taken here — at user-computation and
     send boundaries — never inside scheduler bookkeeping. *)
  Machine.Engine.interrupt_point rt.shared.machine rt.node

let entry_at vft pattern =
  if pattern < Array.length vft.entries then vft.entries.(pattern)
  else vft.default

let obj_class obj =
  match obj.cls with
  | Some c -> c
  | None -> invalid_arg "Kernel.obj_class: uninitialised chunk"

let is_reply_dest shared obj =
  match obj.cls with Some c -> c == shared.reply_cls | None -> false

let make_origin_counters stats prefix =
  let cell suffix = Simcore.Stats.counter stats (prefix ^ suffix) in
  {
    o_dormant = cell "dormant";
    o_active = cell "active";
    o_fault = cell "fault";
    o_restore = cell "restore";
    o_discarded = cell "discarded";
    o_naive_buffered = cell "naive_buffered";
    o_depth_limited = cell "depth_limited";
    o_inlined = cell "inlined";
  }

let make_counters stats =
  let cell name = Simcore.Stats.counter stats name in
  {
    sent_local = make_origin_counters stats "send.local.";
    recv_remote = make_origin_counters stats "recv.remote.";
    c_send_remote = cell "send.remote";
    c_create_local = cell "create.local";
    c_create_remote = cell "create.remote";
    c_create_remote_applied = cell "create.remote.applied";
    c_chunk_refill = cell "chunk.refill";
    c_chunk_stall = cell "chunk.stall";
    c_slot_recycled = cell "slot.recycled";
    c_preempt = cell "preempt";
    c_wait_blocked = cell "wait.blocked";
    c_wait_immediate = cell "wait.immediate";
    c_reply_immediate = cell "reply.immediate";
    c_reply_blocked = cell "reply.blocked";
    c_reply_no_dest = cell "reply.no_dest";
    c_ma_admit = cell "ma.admit";
    c_ma_queued = cell "ma.queued";
    c_ma_overlap = cell "ma.overlap";
    c_ma_conflict = cell "ma.conflict";
  }

(* Filler for vacated activation-stack slots, so a finished method's
   object is not kept reachable by the stack; never dispatched to. *)
let no_obj =
  {
    self = { Value.node = -1; slot = -1 };
    phys_slot = -1;
    cls = None;
    state = [||];
    vftp = { entries = [||]; default = No_method; vft_kind = Vft_fault };
    mq = Queue.create ();
    in_sched_q = false;
    blocked = None;
    initialized = false;
    pending_ctor_args = [];
    exported = false;
    gc_pinned = false;
    ma = None;
  }

let ctrs rt = rt.shared.ctrs
let bump = Simcore.Stats.bump
