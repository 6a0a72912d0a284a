(** Workload pieces shared by the explorer catalog ({!Workloads}) and
    the bench: sequenced bursts over per-node delivery tables with their
    recovery app and exactly-once verdict, the order-sensitive FIFO
    stream, and the reference churner. *)

(** {1 Sequenced channels} *)

type seq
(** Sequenced bursts on a raw engine. Each message on channel
    [(src, dst)] carries the channel's send count at send time; each
    receiving node keeps, per source, the next number it expects. *)

val seq : Machine.Engine.t -> seq
(** Registers the receive handler on the machine. *)

val recovery_app : seq -> Recover.Manager.app
(** Snapshot, restore and reset of one node's delivery table, for
    {!Recover.Manager.attach}. *)

val send_rounds : seq -> rounds:int -> start:int -> burst:int -> unit
(** [rounds] engine timers, 40 us apart from [start]: at each one,
    nodes 0, 1 and 2 each send a [burst] of 8-byte messages to the
    nodes 3 and 6 places on. *)

type verdict = {
  sent : int;  (** messages sent, on all channels *)
  lost : int;  (** messages sent but never delivered *)
  dup : int;  (** channels that delivered more than was sent *)
  reordered : int;  (** deliveries whose number was not the expected one *)
  findings : string list;
      (** one line per out-of-order delivery, then one per channel whose
          delivered count differs from its sent count *)
}

val verdict : seq -> verdict
(** The exactly-once FIFO verdict, once the run is over. *)

val max_gap : seq -> int -> int
(** Longest virtual time between two deliveries at a node. *)

(** {1 FIFO stream} *)

type stream = {
  cell : Core.Kernel.cls;
      (** folds each number [k] it receives into [(31 * hash + k, sum + k)] *)
  driver : Core.Kernel.cls;
      (** sends [1 .. count] to the cell one by one, then asks for a report *)
  start : Core.Pattern.t;  (** the driver's boot message (no arguments) *)
  result : (int * int) option ref;  (** the cell's reported (hash, sum) *)
}

val stream : prefix:string -> stream
(** Defines the classes; pattern and class names start with [prefix].
    Under migration a message's wire size counts its keyword, so each
    caller keeps its own names. *)

val place_stream :
  stream -> Core.System.t -> count:int -> Core.Value.addr * Core.Value.addr
(** Creates the cell on node 0 and a driver of [count] numbers on node 1;
    returns [(cell, driver)]. *)

val stream_expected : count:int -> int * int
(** The [(hash, sum)] a lossless, in-order stream of [count] reports. *)

(** {1 Reference churn} *)

type churn = {
  gcell : Core.Kernel.cls;
  churner : Core.Kernel.cls;
      (** each cycle creates a cell on another node, pokes it and keeps
          only the newest reference: one piece of garbage per cycle *)
  p_churn : Core.Pattern.t;
}

val churn : prefix:string -> churn
(** Defines the classes, names prefixed as for {!stream}. *)

val start_churn : churn -> Core.System.t -> cycles:int -> unit
(** One churner per node, each booted for [cycles] cycles. *)
