(* Tests for object creation: lazy initialisation, explicit and
   policy-driven placement, the chunk-stock protocol and the Figure 4
   initialisation race. *)

open Core

let p_inc = Pattern.intern "tc_inc" ~arity:0
let _p_get = Pattern.intern "tc_get" ~arity:0
let p_go = Pattern.intern "tc_go" ~arity:1

let counter_cls () =
  Class_def.define ~name:"tc_counter" ~state:[| "n" |]
    ~init:(fun args ->
      match args with
      | [ v ] -> [| v |]
      | _ -> [| Value.int 0 |])
    ~methods:
      [
        Class_def.meth "tc_inc" ~arity:0 (fun ctx _ ->
            Ctx.set ctx 0 (Value.int (Value.to_int (Ctx.get ctx 0) + 1)));
        Class_def.meth "tc_get" ~arity:0 (fun ctx msg ->
            Ctx.reply ctx msg (Ctx.get ctx 0));
      ]
    ()

let test_lazy_init () =
  let counter = counter_cls () in
  let sys = System.boot ~nodes:1 ~classes:[ counter ] () in
  let a = System.create_root sys ~node:0 counter [ Value.int 10 ] in
  let obj = Option.get (System.lookup_obj sys a) in
  Alcotest.(check bool) "not initialised at creation" false
    obj.Kernel.initialized;
  Alcotest.(check int) "state box empty" 0 (Array.length obj.Kernel.state);
  Alcotest.(check string) "init table" "init" (Sched.mode_of obj);
  System.send_boot sys a p_inc [];
  System.run sys;
  Alcotest.(check bool) "initialised on first message" true
    obj.Kernel.initialized;
  Alcotest.(check int) "ctor args applied then incremented" 11
    (Value.to_int obj.Kernel.state.(0));
  Alcotest.(check string) "dormant table afterwards" "dormant"
    (Sched.mode_of obj)

let test_placement_policies () =
  let counter = counter_cls () in
  let with_policy placement =
    let rt_config = { System.default_rt_config with Kernel.placement } in
    let sys = System.boot ~rt_config ~nodes:8 ~classes:[ counter ] () in
    System.rt sys 3
  in
  let rt = with_policy Kernel.Round_robin in
  let picks = List.init 8 (fun _ -> Create.pick_node rt) in
  Alcotest.(check (list int)) "round robin starts at the next node"
    [ 4; 5; 6; 7; 0; 1; 2; 3 ] picks;
  let rt = with_policy Kernel.Self_node in
  Alcotest.(check int) "self" 3 (Create.pick_node rt);
  let rt = with_policy (Kernel.Fixed_node 5) in
  Alcotest.(check int) "fixed" 5 (Create.pick_node rt);
  let rt = with_policy Kernel.Random_node in
  for _ = 1 to 50 do
    let p = Create.pick_node rt in
    if p < 0 || p >= 8 then Alcotest.fail "random pick out of range"
  done;
  let rt = with_policy Kernel.Neighbor_round_robin in
  let topo = Network.Topology.square_for 8 in
  let allowed = 3 :: Network.Topology.neighbors topo 3 in
  for _ = 1 to 20 do
    let p = Create.pick_node rt in
    if not (List.mem p allowed) then
      Alcotest.failf "neighbor pick %d outside self+neighbours" p
  done;
  let rt = with_policy (Kernel.Custom_policy (fun my -> my + 100)) in
  Alcotest.(check int) "custom policy wraps into range" ((3 + 100) mod 8)
    (Create.pick_node rt)

let test_chunk_stall_and_resume () =
  let counter = counter_cls () in
  let spawner =
    Class_def.define ~name:"tc_burst"
      ~methods:
        [
          ( p_go,
            fun ctx msg ->
              let k = Value.to_int (Message.arg msg 0) in
              for _ = 1 to k do
                let child = Ctx.create_on ctx ~target:1 counter [ Value.int 0 ] in
                Ctx.send ctx child p_inc []
              done );
        ]
      ()
  in
  let rt_config = { System.default_rt_config with Kernel.stock_size = 1 } in
  let sys = System.boot ~rt_config ~nodes:2 ~classes:[ counter; spawner ] () in
  let sp = System.create_root sys ~node:0 spawner [] in
  System.send_boot sys sp p_go [ Value.int 5 ];
  System.run sys;
  let st = System.stats sys in
  Alcotest.(check int) "all created despite stalls" 5
    (Simcore.Stats.get st "create.remote");
  Alcotest.(check int) "all initialised" 5
    (Simcore.Stats.get st "create.remote.applied");
  Alcotest.(check bool) "stalled at least once" true
    (Simcore.Stats.get st "chunk.stall" >= 3);
  Alcotest.(check int) "stock replenished per creation" 5
    (Simcore.Stats.get st "chunk.refill")

let p_outer = Pattern.intern "tc_outer" ~arity:2

(* A nested dormant invocation stalls on an empty stock: the inner
   spawner's fiber, beneath the outer method's, is parked and resumed by
   chunk replies. Every invocation then closes: depth and activation
   stack are back at zero on both nodes. *)
let test_nested_stall_balanced () =
  let counter = counter_cls () in
  let spawner =
    Class_def.define ~name:"tc_inner_burst"
      ~methods:
        [
          ( p_go,
            fun ctx msg ->
              for _ = 1 to Value.to_int (Message.arg msg 0) do
                let child = Ctx.create_on ctx ~target:1 counter [ Value.int 0 ] in
                Ctx.send ctx child p_inc []
              done );
        ]
      ()
  in
  let outer_done = ref false in
  let outer =
    Class_def.define ~name:"tc_outer"
      ~methods:
        [
          ( p_outer,
            fun ctx msg ->
              Ctx.send ctx (Value.to_addr (Message.arg msg 0)) p_go
                [ Message.arg msg 1 ];
              outer_done := true );
        ]
      ()
  in
  let rt_config = { System.default_rt_config with Kernel.stock_size = 1 } in
  let sys =
    System.boot ~rt_config ~nodes:2 ~classes:[ counter; spawner; outer ] ()
  in
  let sp = System.create_root sys ~node:0 spawner [] in
  let o = System.create_root sys ~node:0 outer [] in
  System.send_boot sys o p_outer [ Value.addr sp; Value.int 4 ];
  System.run sys;
  let st = System.stats sys in
  Alcotest.(check bool) "outer method finished" true !outer_done;
  Alcotest.(check int) "all created" 4 (Simcore.Stats.get st "create.remote");
  Alcotest.(check bool) "the nested invocation stalled" true
    (Simcore.Stats.get st "chunk.stall" >= 3);
  let r = Diagnostics.survey sys in
  Alcotest.(check (list (triple int int int)))
    "no open invocation" [] r.Diagnostics.unbalanced;
  Alcotest.(check bool) "clean" true (Diagnostics.is_clean r)

let p_make = Pattern.intern "tc_make" ~arity:2

(* A one-shot creator: [tc_make target tag] creates a counter on
   [target] and logs [(target, tag)] once the creation returns, i.e.
   once a chunk was taken — after a stall, once the context resumed. *)
let one_shot_cls log =
  let counter = counter_cls () in
  let maker =
    Class_def.define ~name:"tc_one_shot"
      ~methods:
        [
          ( p_make,
            fun ctx msg ->
              let target = Value.to_int (Message.arg msg 0) in
              let tag = Value.to_int (Message.arg msg 1) in
              ignore (Ctx.create_on ctx ~target counter [ Value.int tag ]);
              log := (target, tag) :: !log );
        ]
      ()
  in
  (counter, maker)

(* Boots [nodes] nodes with one-chunk stocks and sends one
   [tc_make target tag] to a fresh maker on node 0 per element of
   [targets], tagged by position. *)
let boot_one_shots ?machine_config ~nodes targets =
  let log = ref [] in
  let counter, maker = one_shot_cls log in
  let rt_config = { System.default_rt_config with Kernel.stock_size = 1 } in
  let sys =
    System.boot ?machine_config ~rt_config ~nodes ~classes:[ counter; maker ] ()
  in
  List.iteri
    (fun tag target ->
      let m = System.create_root sys ~node:0 maker [] in
      System.send_boot sys m p_make [ Value.int target; Value.int tag ])
    targets;
  (sys, log)

(* Several contexts on node 0 stall alternately on two targets. A chunk
   reply from one target must resume that target's earliest waiter, so
   per target, creations complete in park order — which a single FIFO
   over all targets, or a LIFO, would break. A 1 ms packet launch makes
   every context park before the first chunk reply arrives. *)
let test_chunk_waiters_per_target_fifo () =
  let targets = [ 1; 2; 1; 1; 2; 1; 2; 2; 1; 2; 1 ] in
  let machine_config =
    {
      Machine.Engine.default_config with
      fabric = { Network.Fabric.default_config with hw_launch_ns = 1_000_000 };
    }
  in
  let sys, log = boot_one_shots ~machine_config ~nodes:3 targets in
  System.run sys;
  let st = System.stats sys in
  let n = List.length targets in
  Alcotest.(check int) "every creation applied" n
    (Simcore.Stats.get st "create.remote.applied");
  (* One creation per target goes out of the initial stock; every other
     one parks. *)
  Alcotest.(check int) "all but one per target stalled" (n - 2)
    (Simcore.Stats.get st "chunk.stall");
  let completed = List.rev !log in
  List.iter
    (fun target ->
      let parked =
        List.concat
          (List.mapi (fun tag t -> if t = target then [ tag ] else []) targets)
      in
      let resumed =
        List.filter_map
          (fun (t, tag) -> if t = target then Some tag else None)
          completed
      in
      Alcotest.(check (list int))
        (Printf.sprintf "target %d: completions in park order" target)
        parked resumed)
    [ 1; 2 ];
  Alcotest.(check int) "no chunk waiter left at quiescence" 0
    (Diagnostics.survey sys).Diagnostics.chunk_waiters

(* Parking and resuming a chunk waiter is O(1): with ~2,000 contexts
   parked on one target at once, the host allocation per stall stays
   bounded instead of growing with the number already parked. The whole
   run (boot messages, creation requests, chunk replies) costs ~320
   minor words per stall; with a waiter list copied on every park it
   measures ~1,800. *)
let test_chunk_waiters_scale () =
  let n = 2_000 in
  let sys, _ = boot_one_shots ~nodes:2 (List.init n (fun _ -> 1)) in
  let before = Gc.minor_words () in
  System.run sys;
  let words = Gc.minor_words () -. before in
  let stalls = Simcore.Stats.get (System.stats sys) "chunk.stall" in
  Alcotest.(check int) "all but one stalled" (n - 1) stalls;
  let per_stall = words /. float_of_int stalls in
  if per_stall > 1_000. then
    Alcotest.failf "%.0f minor words per chunk stall (bound 1000)" per_stall

(* The Figure 4 race, driven at the protocol level: a message to a fresh
   chunk address reaches the target before the creation request. The
   pre-initialised fault table must buffer it; initialisation must then
   process it. *)
let test_figure4_race () =
  let counter = counter_cls () in
  let sys = System.boot ~nodes:2 ~classes:[ counter ] () in
  let machine = System.machine sys in
  let rt0 = System.rt sys 0 in
  let node0 = Machine.Engine.node machine 0 in
  (* Step 1 of Section 5.2: node 0 obtains a chunk address on node 1
     locally from its stock. *)
  let slot = Queue.take rt0.Kernel.stocks.(1) in
  let inc_msg = Message.make ~pattern:p_inc ~args:[] ~src_node:0 () in
  Machine.Engine.post machine node0 (fun () ->
      (* The ordinary message is injected first and so arrives first
         (per-channel FIFO) — as if it had been relayed via a third
         node ahead of the creation request. *)
      Machine.Engine.send_am machine ~src:node0 ~dst:1
        ~handler:rt0.Kernel.shared.Kernel.h_obj_msg
        ~size_bytes:(Protocol.obj_msg_bytes inc_msg)
        (Protocol.P_obj_msg { slot; msg = inc_msg });
      Machine.Engine.send_am machine ~src:node0 ~dst:1
        ~handler:rt0.Kernel.shared.Kernel.h_create
        ~size_bytes:(Protocol.create_bytes [ Value.int 5 ])
        (Protocol.P_create
           {
             slot;
             cls_id = counter.Kernel.cls_id;
             args = [ Value.int 5 ];
             gc_refs = [];
           }));
  System.run sys;
  let st = System.stats sys in
  Alcotest.(check int) "early message hit the fault table" 1
    (Simcore.Stats.get st "recv.remote.fault");
  let obj = Option.get (System.lookup_obj sys { Value.node = 1; slot }) in
  Alcotest.(check bool) "object initialised" true obj.Kernel.initialized;
  Alcotest.(check int) "buffered message was processed after init" 6
    (Value.to_int obj.Kernel.state.(0))

let test_invalid_slot () =
  let sys = System.boot ~nodes:1 ~classes:[] () in
  let rt0 = System.rt sys 0 in
  Alcotest.(check bool) "unallocated slot rejected" true
    (match Sched.lookup_or_embryo rt0 999_999 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_remote_create_address_available_immediately () =
  let counter = counter_cls () in
  let holder =
    Class_def.define ~name:"tc_holder" ~state:[| "child" |]
      ~init:(fun _ -> [| Value.unit |])
      ~methods:
        [
          ( p_go,
            fun ctx _msg ->
              let before = Ctx.now ctx in
              let child = Ctx.create_on ctx ~target:1 counter [ Value.int 0 ] in
              let after = Ctx.now ctx in
              (* Latency hiding: obtaining the address must not wait a
                 network round trip (~9 us); it is a local operation. *)
              if after - before > Simcore.Time.of_us 5. then
                Alcotest.fail "remote creation blocked the requester";
              Ctx.set ctx 0 (Value.addr child) );
        ]
      ()
  in
  let sys = System.boot ~nodes:2 ~classes:[ counter; holder ] () in
  let h = System.create_root sys ~node:0 holder [] in
  System.send_boot sys h p_go [ Value.int 0 ];
  System.run sys;
  let obj = Option.get (System.lookup_obj sys h) in
  let child = Value.to_addr obj.Kernel.state.(0) in
  Alcotest.(check int) "created on node 1" 1 child.Value.node

let test_create_remote_policy_spread () =
  let counter = counter_cls () in
  let spawner =
    Class_def.define ~name:"tc_spread" ~state:[| "kids" |]
      ~init:(fun _ -> [| Value.list [] |])
      ~methods:
        [
          ( p_go,
            fun ctx msg ->
              let k = Value.to_int (Message.arg msg 0) in
              let kids = ref [] in
              for _ = 1 to k do
                let child = Ctx.create_remote ctx counter [ Value.int 0 ] in
                kids := Value.addr child :: !kids
              done;
              Ctx.set ctx 0 (Value.list !kids) );
        ]
      ()
  in
  let sys = System.boot ~nodes:4 ~classes:[ counter; spawner ] () in
  let sp = System.create_root sys ~node:0 spawner [] in
  System.send_boot sys sp p_go [ Value.int 8 ];
  System.run sys;
  let obj = Option.get (System.lookup_obj sys sp) in
  let kids = Value.to_list obj.Kernel.state.(0) in
  let nodes =
    List.map (fun v -> (Value.to_addr v).Value.node) kids
    |> List.sort_uniq compare
  in
  Alcotest.(check (list int)) "round robin touches every node" [ 0; 1; 2; 3 ]
    nodes

let () =
  Alcotest.run "create"
    [
      ( "creation",
        [
          Alcotest.test_case "lazy init" `Quick test_lazy_init;
          Alcotest.test_case "placement policies" `Quick test_placement_policies;
          Alcotest.test_case "latency hiding" `Quick
            test_remote_create_address_available_immediately;
          Alcotest.test_case "policy spread" `Quick
            test_create_remote_policy_spread;
          Alcotest.test_case "invalid slot" `Quick test_invalid_slot;
        ] );
      ( "chunk stock",
        [
          Alcotest.test_case "stall and resume" `Quick
            test_chunk_stall_and_resume;
          Alcotest.test_case "figure 4 race" `Quick test_figure4_race;
          Alcotest.test_case "per-target FIFO resume" `Quick
            test_chunk_waiters_per_target_fifo;
          Alcotest.test_case "waiters scale linearly" `Quick
            test_chunk_waiters_scale;
          Alcotest.test_case "nested stall leaves the stack balanced" `Quick
            test_nested_stall_balanced;
        ] );
    ]
