(** Virtual time, measured in integer nanoseconds.

    All simulator clocks and event timestamps use this representation.
    63-bit integers give ~292 years of simulated time, far beyond any
    experiment in this repository. *)

type t = int

val zero : t

val of_us : float -> t
(** [of_us x] converts microseconds to nanoseconds, rounding to nearest. *)

val to_us : t -> float

val to_ms : t -> float

val add : t -> t -> t

val max : t -> t -> t

val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
(** Prints with an adaptive unit (ns / us / ms / s). *)
