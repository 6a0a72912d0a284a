(** The API available to a method body while it executes.

    All five basic actions of Section 2.2 are here: past- and now-type
    sends, object creation, state variable access, selective message
    reception, and (modelled) ordinary computation via {!charge}. *)

type t = Kernel.ctx

val self : t -> Value.addr
val node_id : t -> int
val node_count : t -> int

val now : t -> Simcore.Time.t
(** Current virtual time of the executing node. *)

(** {2 State variables} *)

val get : t -> int -> Value.t
val set : t -> int -> Value.t -> unit

val get_named : t -> string -> Value.t
val set_named : t -> string -> Value.t -> unit

(** {2 Message passing} *)

val send : t -> Value.addr -> Pattern.t -> Value.t list -> unit
(** Past type: asynchronously send and do not wait. *)

val send_kw : t -> Value.addr -> string -> Value.t list -> unit
(** As {!send}, naming the pattern by keyword. *)

val send_now : t -> Value.addr -> Pattern.t -> Value.t list -> Value.t
(** Now type: send and wait for the reply. The current method blocks
    only if the reply has not already arrived when the receiver returns
    control — with stack-based scheduling a local request usually
    completes before the check. *)

(** {3 Future-type message passing}

    ABCL's third transmission mode: send asynchronously like a past-type
    message, but keep a handle to the eventual reply. The handle is the
    same reply-destination object a now-type send uses; {!touch} claims
    the value, blocking only if it has not arrived yet. *)

type future

val send_future : t -> Value.addr -> Pattern.t -> Value.t list -> future

val touch : t -> future -> Value.t
(** Claims the reply (single use). Blocks until it arrives if needed. *)

val future_ready : t -> future -> bool
(** Non-blocking poll: has the reply arrived? *)

val future_addr : future -> Value.addr
(** The underlying reply destination, forwardable inside messages. *)

val future_of_addr : t -> Value.addr -> future
(** Reconstructs a future handle from a reply-destination address created
    on this node (the inverse of {!future_addr}). Raises
    [Invalid_argument] for a foreign or already-claimed destination. *)

val send_inlined : t -> Kernel.cls -> Value.addr -> Pattern.t -> Value.t list -> unit
(** Send to a receiver whose class is statically known (Section 8.2). *)

val send_leaf : t -> Kernel.cls -> Value.addr -> Pattern.t -> Value.t list -> unit
(** The fully optimised 8-instruction send of Section 6.1: receiver known
    local, method a non-blocking leaf, object not history-sensitive, no
    poll required. The caller asserts those properties. *)

val reply : t -> Message.t -> Value.t -> unit
(** Sends [value] to the reply destination of the given request message.
    A reply to a past-type message (no destination) is counted and
    dropped. *)

val wait_for : t -> Pattern.t list -> Message.t
(** Selective message reception. *)

val wait_for_kw : t -> string list -> Message.t

(** {2 Object creation} *)

val create_local : t -> Kernel.cls -> Value.t list -> Value.addr
val create_on : t -> target:int -> Kernel.cls -> Value.t list -> Value.addr
val create_remote : t -> Kernel.cls -> Value.t list -> Value.addr

(** {2 Computation model} *)

val charge : t -> int -> unit
(** Accounts [n] instructions of method-body computation on the node
    clock; also a preemption safe point. *)

val random : t -> int -> int
(** Deterministic per-node randomness. *)

val bump : t -> string -> unit
(** Increments an application-level statistics counter. *)

val retire : t -> unit
(** Drops this object from the node's object table once its current
    method completes its protocol role — the application-level analogue
    of reclaiming a dead object. Messages sent to a retired address are
    a programming error. *)

(** {2 Plumbing for service layers} *)

val node : t -> Machine.Node.t
val engine : t -> Machine.Engine.t
val rt : t -> Kernel.node_rt

