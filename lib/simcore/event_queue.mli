(** A deterministic priority queue of timestamped events.

    Events with equal timestamps pop in insertion order (FIFO tie-break),
    which makes whole-machine simulations reproducible run to run. *)

type 'a t

val create : unit -> 'a t

val add : 'a t -> time:Time.t -> 'a -> unit
(** [add q ~time ev] schedules [ev] at [time]. O(log n); allocates
    nothing once the queue has grown to its working size. *)

val min_time : 'a t -> Time.t
(** Timestamp of the earliest event, or [max_int] when the queue is
    empty. The event {!take} removes next carries this timestamp, with
    or without a tie-break. Allocation-free. *)

val take : 'a t -> 'a
(** Removes and returns the earliest event (under the tie-break, if one
    is set). Allocation-free without a tie-break. Raises
    [Invalid_argument] on an empty queue. *)

val pop : 'a t -> (Time.t * 'a) option
(** Removes and returns the earliest event, or [None] if empty:
    {!min_time} and {!take} in one call. *)

val set_tie_break : 'a t -> ('a array -> int) option -> unit
(** [set_tie_break q (Some choose)] lets [choose] pick among
    same-timestamp events on {!take}: when two or more events share the
    minimal time, [choose candidates] receives their values ordered by
    insertion sequence and returns the index to pop. Returning [0] is
    the FIFO default; out-of-range picks fall back to 0. Callers can
    inspect the candidate values to rule out permutations that are not
    genuine concurrency (see {!Machine.Node.set_inbox_tie_break}).
    [None] (the initial state) restores plain FIFO. Used by the
    schedule explorer to perturb orderings the simulation treats as
    concurrent. *)

val iter : (Time.t -> 'a -> unit) -> 'a t -> unit
(** Visits every queued event in unspecified (heap) order, without
    removing anything. For inspection passes only. *)

val size : 'a t -> int

val is_empty : 'a t -> bool

val clear : 'a t -> unit
