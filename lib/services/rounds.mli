(** The periodic-round driver shared by auto-gossip ({!Load}), the
    migration policy timers and the distributed collector's sweeps. *)

val arm :
  Machine.Engine.t ->
  interval_ns:int ->
  ?extra_progress:(unit -> int) ->
  (node:int -> unit) ->
  unit
(** [arm m ~interval_ns action] runs one synchronized round per
    interval, the first at [interval_ns]. A round takes the {e busiest
    node's clock}, advances every node's clock to it, runs [action] on
    each node in id order, and re-arms at that clock + [interval_ns].
    Pacing on the event clock instead would run thousands of rounds per
    application slice: a hybrid-scheduled cascade advances one node's
    clock by milliseconds inside a single event.

    Rounds stop re-arming after 4 consecutive rounds without progress
    (one is not enough: a retransmission gap can stall the application
    across a round), so [Engine.run] terminates once the application
    drains. Progress is the sum of the application's [send.*] and
    [create.*] counters, which service traffic never bumps, plus
    [extra_progress ()] (a service whose own work must keep its rounds
    alive, such as the collector's reclamation cascades). A
    machine-level "busy" test would read the services' own messages and
    lagging acks as activity and tick forever. *)
