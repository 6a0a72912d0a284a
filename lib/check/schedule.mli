(** Recorded choice sequences: one schedule = one replayable run.

    Every nondeterministic decision the simulator exposes (event-queue
    tie-breaks, inbox poll order, coalesce flush jitter, fault-plan and
    timer-phase draws) is routed through {!choice}. Recording draws the
    values from a seeded RNG and logs them; replaying feeds a stored
    vector back. Since the simulation is otherwise deterministic, the
    vector fully determines the run. *)

type t

val record : seed:int -> t
(** Fresh recording schedule: choices are uniform RNG draws. *)

val replay : int array -> t
(** Replaying schedule: choice [i] returns [vector.(i) mod n] (clamped
    into the live domain), and 0 — the unperturbed baseline — once the
    vector is exhausted. Replaying a full recorded trace reproduces the
    run bit-identically; a shrunk prefix is still a valid schedule. *)

val choice : t -> tag:string -> int -> int
(** [choice t ~tag n] draws the next value in [[0, n)]. [tag] names the
    decision point (diagnostics only — it does not affect the value).
    0 always means "the unperturbed default". *)

val trace : t -> int array
(** Choices consumed so far, in order — the replay vector. *)

val used : t -> int
