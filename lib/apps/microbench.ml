open Core

type t = {
  intra_dormant_ns : float;
  intra_active_ns : float;
  intra_create_ns : float;
  inter_latency_ns : float;
  now_roundtrip_remote_ns : float;
  inlined_send_ns : float;
  lean_send_ns : float;
}

let p_null = Pattern.intern "null" ~arity:0
let p_echo = Pattern.intern "echo" ~arity:1
let p_send_loop = Pattern.intern "send_loop" ~arity:2
let p_flood = Pattern.intern "flood" ~arity:2
let p_tick = Pattern.intern "tick" ~arity:0
let p_create_loop = Pattern.intern "create_loop" ~arity:2
let p_now_loop = Pattern.intern "now_loop" ~arity:2
let p_inline_loop = Pattern.intern "inline_loop" ~arity:2
let p_lean_loop = Pattern.intern "lean_loop" ~arity:2

let sink_cls () =
  Class_def.define ~name:"mb_sink"
    ~methods:
      [
        (p_null, fun _ctx _msg -> ());
        (p_echo, fun ctx msg -> Ctx.reply ctx msg (Message.arg msg 0));
      ]
    ()

let driver_cls sink_cls =
  let repeat k f =
    for _ = 1 to k do
      f ()
    done
  in
  Class_def.define ~name:"mb_driver"
    ~methods:
      [
        ( p_send_loop,
          fun ctx msg ->
            let k = Value.to_int (Message.arg msg 0) in
            let sink = Value.to_addr (Message.arg msg 1) in
            repeat k (fun () -> Ctx.send ctx sink p_null []) );
        ( p_flood,
          fun ctx msg ->
            let k = Value.to_int (Message.arg msg 0) in
            let self = Ctx.self ctx in
            (* The driver is active while its own method runs, so every
               self-send takes the full buffered path. *)
            repeat k (fun () -> Ctx.send ctx self p_tick []) );
        (p_tick, fun _ctx _msg -> ());
        ( p_create_loop,
          fun ctx msg ->
            let k = Value.to_int (Message.arg msg 0) in
            repeat k (fun () -> ignore (Ctx.create_local ctx sink_cls [])) );
        ( p_now_loop,
          fun ctx msg ->
            let k = Value.to_int (Message.arg msg 0) in
            let sink = Value.to_addr (Message.arg msg 1) in
            repeat k (fun () ->
                ignore (Ctx.send_now ctx sink p_echo [ Value.int 1 ])) );
        ( p_inline_loop,
          fun ctx msg ->
            let k = Value.to_int (Message.arg msg 0) in
            let sink = Value.to_addr (Message.arg msg 1) in
            repeat k (fun () -> Ctx.send_inlined ctx sink_cls sink p_null []) );
        ( p_lean_loop,
          fun ctx msg ->
            let k = Value.to_int (Message.arg msg 0) in
            let sink = Value.to_addr (Message.arg msg 1) in
            repeat k (fun () -> Ctx.send_leaf ctx sink_cls sink p_null []) );
      ]
    ()

(* Elapsed virtual time of one boot-send scenario. *)
let scenario ?machine_config ~nodes ~sink_node pattern k =
  let sink = sink_cls () in
  let driver = driver_cls sink in
  (* A large quantum so the measurement loops are not preempted. *)
  let rt_config =
    { System.default_rt_config with Kernel.quantum_instr = max_int }
  in
  let sys =
    System.boot ?machine_config ~rt_config ~nodes ~classes:[ sink; driver ] ()
  in
  let s = System.create_root sys ~node:sink_node sink [] in
  let d = System.create_root sys ~node:0 driver [] in
  System.send_boot sys d pattern [ Value.int k; Value.addr s ];
  System.run sys;
  System.elapsed sys

let per_op ?machine_config ~nodes ~sink_node pattern k =
  let t2 = scenario ?machine_config ~nodes ~sink_node pattern k in
  let t1 = scenario ?machine_config ~nodes ~sink_node pattern (k / 2) in
  float_of_int (t2 - t1) /. float_of_int (k - (k / 2))

let inter_latency ?machine_config () =
  (* Paper methodology: two dormant objects on different nodes bouncing a
     one-word past-type message; the steady-state period is the latency. *)
  let r = Ring.run ?machine_config ~nodes:2 ~laps:512 () in
  r.Ring.ns_per_hop

let measure ?machine_config () =
  let k = 1024 in
  let local pattern = per_op ?machine_config ~nodes:1 ~sink_node:0 pattern k in
  {
    intra_dormant_ns = local p_send_loop;
    intra_active_ns = local p_flood;
    intra_create_ns = local p_create_loop;
    inter_latency_ns = inter_latency ?machine_config ();
    now_roundtrip_remote_ns =
      per_op ?machine_config ~nodes:2 ~sink_node:1 p_now_loop (k / 4);
    inlined_send_ns = local p_inline_loop;
    lean_send_ns = local p_lean_loop;
  }

let pp ppf t =
  Format.fprintf ppf
    "@[<v>intra-node to dormant: %8.0f ns@,\
     intra-node to active:  %8.0f ns@,\
     intra-node creation:   %8.0f ns@,\
     inter-node latency:    %8.0f ns@,\
     now-type remote rtt:   %8.0f ns@,\
     inlined dormant send:  %8.0f ns@,\
     fully-optimised send:  %8.0f ns@]"
    t.intra_dormant_ns t.intra_active_ns t.intra_create_ns t.inter_latency_ns
    t.now_roundtrip_remote_ns t.inlined_send_ns t.lean_send_ns
