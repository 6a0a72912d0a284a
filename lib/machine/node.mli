(** Per-node state of the simulated multicomputer.

    A node owns a virtual clock, an inbox of delivered-but-unpolled active
    messages, the node-global scheduling queue of the paper (represented
    as thunks: "a pointer to the object and a continuation address"), and
    an opaque [local] slot where the language runtime stores its per-node
    structures (object table, chunk stocks, ...). *)

type local = ..
type local += No_local

type t

val create : id:int -> t

val id : t -> int

val clock : t -> Simcore.Clock.t

val now : t -> Simcore.Time.t

val charge_ns : t -> int -> unit
(** Advance the node clock by a duration in nanoseconds. *)

(** {2 Runtime-local state} *)

val local : t -> local
val set_local : t -> local -> unit

(** {2 Inbox (network side)} *)

val inbox_push : t -> arrival:Simcore.Time.t -> Am.t -> unit

val set_inbox_tie_break : t -> (int -> int) option -> unit
(** Installs a same-arrival-time tie-break on the inbox (see
    {!Simcore.Event_queue.set_tie_break}). Only messages from distinct
    sources landing at the same instant are genuinely concurrent —
    same-source runs (e.g. released together by the reliable layer's
    reorder buffer) keep their sequenced order — so [choose n] ranges
    over the distinct sources present and picks whose earliest message
    polls first. The schedule explorer perturbs poll order through this
    hook. *)

val inbox_min : t -> Simcore.Time.t
(** Arrival time of the oldest message, or [max_int] when the inbox is
    empty. The message is ready once this is <= {!now}. *)

val inbox_take : t -> Am.t
(** Removes the oldest message (the one {!inbox_min} timed), whether or
    not it is ready. Raises [Invalid_argument] on an empty inbox. *)

val inbox_size : t -> int

val inbox_iter : (Am.t -> unit) -> t -> unit
(** Visits every delivered-but-unpolled message, in unspecified order,
    without removing anything. For inspection passes (GC analysis). *)

(** {2 Scheduling queue} *)

val runq_push : t -> (unit -> unit) -> unit
val runq_pop : t -> (unit -> unit) option
val runq_size : t -> int

(** {2 Engine bookkeeping} *)

val is_idle : t -> bool
val set_idle : t -> bool -> unit

(** {2 Heap accounting (for memory reports)} *)

val heap_alloc_words : t -> int -> unit

val heap_free_words : t -> int -> unit
(** Returns words to the heap accounting (clamped at zero); the GC calls
    this when objects are reclaimed. *)

val heap_words : t -> int

(** {2 Interrupt masking} *)

val interrupts_masked : t -> bool
val set_interrupts_masked : t -> bool -> unit

(** {2 Engine wake bookkeeping} *)

val next_wake : t -> Simcore.Time.t
(** Earliest scheduled wake-up for this node ([max_int] when none). *)

val set_next_wake : t -> Simcore.Time.t -> unit

(** {2 Crash} *)

val crash_reset : t -> unit
(** Drops every piece of volatile state — inbox, scheduling queue, heap
    accounting, interrupt mask, wake bookkeeping — and marks the node
    idle. The clock is {e not} reset: it is the engine's virtual-time
    cursor, and the restarted incarnation resumes at (not before) the
    crash instant. The opaque [local] slot is left for the runtime's
    crash hook to wipe. *)
