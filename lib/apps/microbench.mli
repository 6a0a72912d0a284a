(** Microbenchmarks of the basic runtime operations, measured in virtual
    time exactly as the paper measures them (Section 6.1): repeat an
    operation k times, subtract a k/2 run to cancel fixed costs, divide.

    Used by [bench/main.exe] to regenerate Tables 1-3 and by the test
    suite to pin the cost model against the paper's headline numbers. *)

type t = {
  intra_dormant_ns : float;
      (** past-type message to a dormant local object (paper: 2.3 us) *)
  intra_active_ns : float;
      (** message to an active object, including rescheduling through the
          scheduling queue (paper: 9.6 us) *)
  intra_create_ns : float;  (** local object creation (paper: 2.1 us) *)
  inter_latency_ns : float;
      (** one-way inter-node message period between adjacent nodes,
          measured by repeated transmission (paper: 8.9 us) *)
  now_roundtrip_remote_ns : float;
      (** now-type send + reply across two nodes (paper Table 3: 17.8 us,
          ~450 cycles at 25 MHz) *)
  inlined_send_ns : float;
      (** Section 8.2 inlined send to a known-class local dormant object *)
  lean_send_ns : float;
      (** the fully optimised send with all four Section 6.1 conditions
          (paper: 8 instructions, "truly comparable with a virtual
          function call in C++") *)
}

val measure : ?machine_config:Machine.Engine.config -> unit -> t

val pp : Format.formatter -> t -> unit
