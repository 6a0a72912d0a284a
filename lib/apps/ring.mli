(** Token ring: one object per node passing a hop-counting token around
    the torus. The steady-state time per hop is the end-to-end
    asynchronous inter-node message latency (Table 1's last row measured
    on a live application rather than a microbenchmark). *)

type result = {
  nodes : int;
  hops : int;
  elapsed : Simcore.Time.t;
  ns_per_hop : float;
}

val run :
  ?machine_config:Machine.Engine.config ->
  ?rt_config:Core.Kernel.rt_config ->
  nodes:int ->
  laps:int ->
  unit ->
  result
