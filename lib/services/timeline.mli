(** Execution timeline: records engine observations during a run and
    renders a per-node busy/idle chart plus traffic summaries — the
    observability companion to the paper's utilization claims. *)

type t

val attach : Core.System.t -> t
(** Starts recording (replaces any previous observer on the machine). *)

val attach_machine : Machine.Engine.t -> t
(** As {!attach}, for a bare machine without a language runtime. *)

val detach : t -> unit

val slices : t -> int
val deliveries : t -> int

val hash : t -> int
(** Order-sensitive digest of every observation recorded so far (event
    kind, timestamps, endpoints). Two runs produce equal hashes iff the
    engine emitted the same observation stream — the check behind
    "replaying a recorded schedule reproduces the run bit-identically". *)

val busy_fraction : t -> node:int -> float
(** Recorded busy time of a node divided by the machine's makespan. *)

val render : ?width:int -> t -> string
(** A text gantt chart: one row per node (the first 16 nodes),
    [width] time buckets; a bucket shows how busy the node was in it
    ([' '] idle, ['.'] <50%, ['#'] >=50%). Includes a traffic line. *)

val message_matrix : t -> (int * int * int) list
(** Aggregated (src, dst, packets) traffic pairs, heaviest first. *)
