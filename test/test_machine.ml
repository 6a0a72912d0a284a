(* Unit tests for the machine layer: cost model, nodes, the discrete-event
   engine and the active-message plumbing. *)

module Engine = Machine.Engine
module Node = Machine.Node
module Am = Machine.Am
module Cost_model = Machine.Cost_model

type Am.payload += Marker of int

let test_cost_model_totals () =
  let c = Cost_model.default in
  Alcotest.(check int) "dormant path is the paper's 25" 25
    (Cost_model.dormant_send_instructions c);
  Alcotest.(check int) "time scales" (25 * c.ns_per_instr)
    (Cost_model.time c 25)

let test_node_basics () =
  let n = Node.create ~id:3 in
  Alcotest.(check int) "id" 3 (Node.id n);
  Alcotest.(check bool) "idle initially" true (Node.is_idle n);
  Node.charge_ns n 100;
  Alcotest.(check int) "clock" 100 (Node.now n);
  Node.heap_alloc_words n 7;
  Node.heap_alloc_words n 3;
  Alcotest.(check int) "heap accounting" 10 (Node.heap_words n)

let test_inbox_ready_gating () =
  let n = Node.create ~id:0 in
  let am = { Am.handler = 0; src = 1; size_bytes = 0; payload = Am.Ping } in
  Node.inbox_push n ~arrival:500 am;
  Alcotest.(check bool) "not ready before arrival" true
    (Node.inbox_min n > Node.now n);
  Node.charge_ns n 500;
  Alcotest.(check bool) "ready at arrival" true
    (Node.inbox_min n <= Node.now n);
  Alcotest.(check int) "takes the message" 1 (Node.inbox_take n).Am.src;
  Alcotest.(check int) "empty inbox has no arrival" max_int (Node.inbox_min n)

let test_dispatch_and_quiesce () =
  let m = Engine.create ~nodes:4 () in
  let hits = ref [] in
  let h =
    Engine.register_handler m Am.Service ~name:"marker" (fun _ node am ->
        match am.Am.payload with
        | Marker k -> hits := (Node.id node, k) :: !hits
        | _ -> assert false)
  in
  let n0 = Engine.node m 0 in
  Engine.send_am m ~src:n0 ~dst:1 ~handler:h ~size_bytes:4 (Marker 10);
  Engine.send_am m ~src:n0 ~dst:2 ~handler:h ~size_bytes:4 (Marker 20);
  Engine.run m;
  let sorted = List.sort compare !hits in
  Alcotest.(check (list (pair int int))) "both delivered" [ (1, 10); (2, 20) ] sorted;
  Alcotest.(check int) "packets" 2 (Engine.packets_sent m)

let test_fifo_order_across_engine () =
  let m = Engine.create ~nodes:2 () in
  let seen = ref [] in
  let h =
    Engine.register_handler m Am.Service ~name:"seq" (fun _ _ am ->
        match am.Am.payload with
        | Marker k -> seen := k :: !seen
        | _ -> assert false)
  in
  let n0 = Engine.node m 0 in
  for k = 1 to 10 do
    Engine.send_am m ~src:n0 ~dst:1 ~handler:h ~size_bytes:4 (Marker k)
  done;
  Engine.run m;
  Alcotest.(check (list int)) "transmission order preserved"
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    (List.rev !seen)

let test_loopback () =
  let m = Engine.create ~nodes:1 () in
  let got = ref false in
  let h =
    Engine.register_handler m Am.Service ~name:"self" (fun _ _ _ -> got := true)
  in
  let n0 = Engine.node m 0 in
  Engine.send_am m ~src:n0 ~dst:0 ~handler:h ~size_bytes:0 Am.Ping;
  Engine.run m;
  Alcotest.(check bool) "loopback delivered" true !got;
  Alcotest.(check int) "loopback bypasses fabric" 0 (Engine.packets_sent m)

let test_receive_charges_time () =
  let run delivery =
    let config = { Engine.default_config with Engine.delivery } in
    let m = Engine.create ~config ~nodes:2 () in
    let h = Engine.register_handler m Am.Service ~name:"nop" (fun _ _ _ -> ()) in
    Engine.send_am m ~src:(Engine.node m 0) ~dst:1 ~handler:h ~size_bytes:0
      Am.Ping;
    Engine.run m;
    Node.now (Engine.node m 1)
  in
  let polling = run Engine.Polling and interrupt = run Engine.Interrupt in
  let c = Cost_model.default in
  Alcotest.(check int) "interrupt adds overhead"
    (Cost_model.time c c.interrupt_overhead)
    (interrupt - polling);
  Alcotest.(check bool) "receive handling charged" true (polling > 0)

let test_post_and_charge () =
  let m = Engine.create ~nodes:2 () in
  let ran = ref false in
  Engine.post m (Engine.node m 1) (fun () -> ran := true);
  Engine.run m;
  Alcotest.(check bool) "posted thunk ran" true !ran;
  (* The scheduling-queue dequeue cost is charged by the engine. *)
  Alcotest.(check bool) "dequeue charged" true (Node.now (Engine.node m 1) > 0)

let test_max_slices () =
  let m = Engine.create ~nodes:1 () in
  let n0 = Engine.node m 0 in
  (* A thunk that reposts itself forever. *)
  let rec loop () = Engine.post m n0 loop in
  Engine.post m n0 loop;
  Alcotest.check_raises "livelock backstop"
    (Failure "Engine.run: max_slices exceeded (livelock?)") (fun () ->
      Engine.run ~max_slices:100 m)

let test_determinism () =
  let run () =
    let m = Engine.create ~nodes:4 () in
    let count = ref 0 in
    let h = ref (-1) in
    h :=
      Engine.register_handler m Am.Service ~name:"bounce" (fun m' node am ->
          incr count;
          if !count < 50 then
            Engine.send_am m' ~src:node ~dst:am.Am.src ~handler:!h ~size_bytes:4
              Am.Ping);
    Engine.send_am m ~src:(Engine.node m 0) ~dst:1 ~handler:!h ~size_bytes:4
      Am.Ping;
    Engine.run m;
    (Engine.elapsed m, !count)
  in
  Alcotest.(check (pair int int)) "identical runs" (run ()) (run ())

let test_utilization_bounds () =
  let m = Engine.create ~nodes:4 () in
  Alcotest.(check (float 0.0001)) "empty machine" 0. (Engine.utilization m);
  let h = Engine.register_handler m Am.Service ~name:"nop" (fun _ _ _ -> ()) in
  Engine.send_am m ~src:(Engine.node m 0) ~dst:1 ~handler:h ~size_bytes:0
    Am.Ping;
  Engine.run m;
  let u = Engine.utilization m in
  Alcotest.(check bool) "in (0,1]" true (u > 0. && u <= 1.)

let test_observer_streams_events () =
  let m = Engine.create ~nodes:2 () in
  let deliveries = ref 0 and slices = ref 0 in
  Engine.set_observer m
    (Some
       (function
       | Engine.Obs_deliver _ -> incr deliveries
       | Engine.Obs_slice _ -> incr slices
       | Engine.Obs_batch _ | Engine.Obs_crash _ | Engine.Obs_restart _ -> ()));
  let h = Engine.register_handler m Am.Service ~name:"nop" (fun _ _ _ -> ()) in
  for _ = 1 to 5 do
    Engine.send_am m ~src:(Engine.node m 0) ~dst:1 ~handler:h ~size_bytes:4
      Am.Ping
  done;
  Engine.run m;
  Alcotest.(check int) "one delivery observation per packet" 5 !deliveries;
  Alcotest.(check bool) "slices observed" true (!slices >= 1);
  Engine.set_observer m None

let test_interrupt_point_polling_noop () =
  let m = Engine.create ~nodes:1 () in
  let n0 = Engine.node m 0 in
  (* With polling delivery this must be a no-op even with a ready inbox. *)
  let h = Engine.register_handler m Am.Service ~name:"nop" (fun _ _ _ -> ()) in
  Node.inbox_push n0 ~arrival:0
    { Am.handler = h; src = 0; size_bytes = 0; payload = Am.Ping };
  Engine.interrupt_point m n0;
  Alcotest.(check int) "message still queued" 1 (Node.inbox_size n0)

let test_unknown_handler () =
  let m = Engine.create ~nodes:2 () in
  Alcotest.check_raises "unknown handler"
    (Invalid_argument "Engine: unknown handler") (fun () ->
      Engine.send_am m ~src:(Engine.node m 0) ~dst:1 ~handler:99 ~size_bytes:0
        Am.Ping)

let () =
  Alcotest.run "machine"
    [
      ( "cost_model",
        [ Alcotest.test_case "totals" `Quick test_cost_model_totals ] );
      ( "node",
        [
          Alcotest.test_case "basics" `Quick test_node_basics;
          Alcotest.test_case "inbox gating" `Quick test_inbox_ready_gating;
        ] );
      ( "engine",
        [
          Alcotest.test_case "dispatch+quiesce" `Quick test_dispatch_and_quiesce;
          Alcotest.test_case "fifo order" `Quick test_fifo_order_across_engine;
          Alcotest.test_case "loopback" `Quick test_loopback;
          Alcotest.test_case "receive charges" `Quick test_receive_charges_time;
          Alcotest.test_case "post" `Quick test_post_and_charge;
          Alcotest.test_case "max_slices" `Quick test_max_slices;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "utilization" `Quick test_utilization_bounds;
          Alcotest.test_case "unknown handler" `Quick test_unknown_handler;
          Alcotest.test_case "observer" `Quick test_observer_streams_events;
          Alcotest.test_case "interrupt point noop" `Quick
            test_interrupt_point_polling_noop;
        ] );
    ]
