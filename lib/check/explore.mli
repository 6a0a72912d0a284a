(** The schedule explorer: sweep recorded schedules across the workload
    catalog, shrink failures to minimal reproducers, replay reproducers
    bit-identically. *)

type outcome = {
  o_workload : string;
  o_seed : int option;  (** recording seed, if this run was recorded *)
  o_hash : int;  (** Timeline hash (0 when the run crashed) *)
  o_trace : int array;  (** choices consumed — the replay vector *)
  o_violations : (string * string) list;
  o_crash : string option;  (** exception text if the run raised *)
}

val failed : outcome -> bool

val run_recorded : Workloads.t -> seed:int -> outcome
val run_replay : Workloads.t -> int array -> outcome

val shrink : Workloads.t -> int array -> int array
(** Greedy minimization: zero out choice chunks (halving sizes) and trim
    trailing zeros, keeping candidates that still fail, in at most 250
    replays. *)

val save : path:string -> outcome -> unit
(** Writes a reproducer file (workload name + vector, violations as
    comments). *)

val load : string -> string * int array
(** [(workload_name, vector)] from a reproducer file. *)

type failure = {
  f_outcome : outcome;
  f_minimized : int array;
  f_path : string option;
}

type summary = { runs : int; failures : failure list }

val sweep :
  ?out_dir:string ->
  ?log:(string -> unit) ->
  workloads:Workloads.t list ->
  schedules:int ->
  seed:int ->
  unit ->
  summary
(** Runs [schedules] recorded schedules (seeds [seed, seed+schedules))
    per workload; failures are shrunk and, with [out_dir], written to
    [explore-fail-<workload>-<seed>.txt]. *)

type replayed = {
  rp_outcome : outcome;
  rp_second_hash : int;
  rp_identical : bool;  (** two replays of the vector hashed identically *)
}

val replay : Workloads.t -> int array -> replayed
val replay_file : string -> replayed
