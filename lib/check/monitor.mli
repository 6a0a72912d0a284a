(** Global invariant monitor: subsystems register probes; the monitor
    runs them at configurable step intervals during a run and — all of
    them — at quiescence, accumulating violations instead of raising, so
    one run reports every broken invariant it can see. *)

type when_ =
  | At_quiescence
      (** meaningful only when the machine is quiet: conservation sums,
          emptiness-of-buffers, no-lost-wakeup *)
  | Always  (** structural: may be checked at any instant *)

type violation = { v_probe : string; v_detail : string }

type t

val create : unit -> t

val register : t -> name:string -> when_:when_ -> (unit -> string list) -> unit
(** Adds a probe. The function returns one human-readable detail line
    per violated instance (empty list = invariant holds). *)

val check_always : t -> unit
(** Runs the [Always] probes now. *)

val check_quiescent : t -> unit
(** Runs {e every} probe — call when {!Machine.Engine.quiescent} (e.g.
    after [System.run] returns). *)

val attach_periodic : t -> Machine.Engine.t -> interval_ns:int -> unit
(** Arms a re-arming engine timer that runs the [Always] probes every
    [interval_ns] of virtual time until the machine quiesces. *)

val violations : t -> violation list
(** Distinct violations observed, in first-seen order. *)

val checks : t -> int
(** Number of probe sweeps executed (for "the monitor actually ran"
    assertions). *)

