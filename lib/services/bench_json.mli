(** Machine-readable benchmark artifacts.

    Every bench section persists its gate-relevant numbers as a flat
    JSON object ([BENCH_<section>.json]) so the perf trajectory is
    tracked PR-over-PR by CI instead of living only in console logs. *)

type v = Int of int | Float of float | Bool of bool | Str of string

val write : path:string -> (string * v) list -> unit
(** Writes the fields as a pretty-printed JSON object, overwriting any
    existing file. Field order is preserved. Raises [Invalid_argument]
    (before touching the file) if a key occurs twice. *)

val perf_fields :
  wall_clock_s:float -> events:int -> domains:int -> (string * v) list
(** The standard performance triple every bench section appends to its
    artifact: [wall_clock_s] (host seconds the section's simulation
    took), [events_per_sec] (engine events processed per host second; 0
    when the clock is too coarse to divide by), and [domains] (1 for
    sequential sections). Keeping the shape uniform lets CI trend
    simulator throughput across sections without per-section parsing. *)

val read_int_field : path:string -> key:string -> int option
(** Minimal reader for regression gates: the integer value of a
    top-level field written by {!write}, or [None] if the file is
    unreadable or the key is absent. *)
