(* Integration tests for the integrated stack/queue scheduler — including
   the paper's Figure 1 and Figure 3 scenarios reproduced literally. *)

open Core

let p_start = Pattern.intern "ts_start" ~arity:1
let p_m = Pattern.intern "ts_m" ~arity:1
let p_go = Pattern.intern "ts_go" ~arity:1

(* --- Figure 1: A sends to dormant B; B to dormant C; C back to (now
   active) B. Stack-based scheduling runs B and C immediately; the second
   message to B is buffered and processed through the scheduling queue
   after A finishes. --- *)

let test_figure1 () =
  let log = ref [] in
  let trace tag = log := tag :: !log in
  let cls_c c_target_b =
    Class_def.define ~name:"fig1_c"
      ~methods:
        [
          ( p_m,
            fun ctx _msg ->
              trace "C.begin";
              Ctx.send ctx (Value.to_addr !c_target_b) p_m [ Value.int 2 ];
              trace "C.continue" );
        ]
      ()
  in
  let cls_b c_addr =
    Class_def.define ~name:"fig1_b"
      ~methods:
        [
          ( p_m,
            fun ctx msg ->
              match Value.to_int (Message.arg msg 0) with
              | 1 ->
                  trace "B.m1";
                  Ctx.send ctx (Value.to_addr !c_addr) p_m [ Value.int 0 ];
                  trace "B.after"
              | _ -> trace "B.m2" );
        ]
      ()
  in
  let cls_a b_addr =
    Class_def.define ~name:"fig1_a"
      ~methods:
        [
          ( p_start,
            fun ctx _msg ->
              trace "A.begin";
              Ctx.send ctx (Value.to_addr !b_addr) p_m [ Value.int 1 ];
              trace "A.after" );
        ]
      ()
  in
  let b_ref = ref Value.unit and c_ref = ref Value.unit in
  let c_cls = cls_c b_ref in
  let b_cls = cls_b c_ref in
  let a_cls = cls_a b_ref in
  let sys = System.boot ~nodes:1 ~classes:[ a_cls; b_cls; c_cls ] () in
  let a = System.create_root sys ~node:0 a_cls [] in
  let b = System.create_root sys ~node:0 b_cls [] in
  let c = System.create_root sys ~node:0 c_cls [] in
  b_ref := Value.addr b;
  c_ref := Value.addr c;
  System.send_boot sys a p_start [ Value.int 0 ];
  System.run sys;
  Alcotest.(check (list string))
    "Figure 1 event order"
    [ "A.begin"; "B.m1"; "C.begin"; "C.continue"; "B.after"; "A.after"; "B.m2" ]
    (List.rev !log);
  let st = System.stats sys in
  Alcotest.(check int) "one buffered message (C's second to B)" 1
    (Simcore.Stats.get st "send.local.active");
  Alcotest.(check int) "three stack-invoked messages" 3
    (Simcore.Stats.get st "send.local.dormant")

(* --- Figure 3: S sends a now-type message to an active R; since no
   reply can have arrived, S saves its context and unwinds; R later
   processes the request from its queue and the reply resumes S. --- *)

let p_poke = Pattern.intern "ts_poke" ~arity:1
let p_req = Pattern.intern "ts_req" ~arity:1

let test_figure3 () =
  let log = ref [] in
  let trace tag = log := tag :: !log in
  let s_ref = ref Value.unit in
  let r_cls =
    Class_def.define ~name:"fig3_r"
      ~methods:
        [
          ( p_go,
            fun ctx _msg ->
              trace "R.begin";
              (* Invoke dormant S on top of R's frame: R stays active. *)
              Ctx.send ctx (Value.to_addr !s_ref) p_poke [ Value.int 0 ];
              trace "R.rest" );
          ( p_req,
            fun ctx msg ->
              trace "R.req";
              Ctx.reply ctx msg (Value.int 99) );
        ]
      ()
  in
  let r_ref = ref Value.unit in
  let s_cls =
    Class_def.define ~name:"fig3_s" ~state:[| "got" |]
      ~init:(fun _ -> [| Value.int 0 |])
      ~methods:
        [
          ( p_poke,
            fun ctx _msg ->
              trace "S.begin";
              let reply =
                Ctx.send_now ctx (Value.to_addr !r_ref) p_req [ Value.int 0 ]
              in
              trace "S.resumed";
              Ctx.set ctx 0 reply );
        ]
      ()
  in
  let sys = System.boot ~nodes:1 ~classes:[ r_cls; s_cls ] () in
  let r = System.create_root sys ~node:0 r_cls [] in
  let s = System.create_root sys ~node:0 s_cls [] in
  r_ref := Value.addr r;
  s_ref := Value.addr s;
  System.send_boot sys r p_go [ Value.int 0 ];
  System.run sys;
  Alcotest.(check (list string))
    "Figure 3 event order"
    [ "R.begin"; "S.begin"; "R.rest"; "R.req"; "S.resumed" ]
    (List.rev !log);
  let st = System.stats sys in
  Alcotest.(check int) "S blocked awaiting the reply" 1
    (Simcore.Stats.get st "reply.blocked");
  Alcotest.(check int) "no immediate reply" 0
    (Simcore.Stats.get st "reply.immediate");
  let s_obj = Option.get (System.lookup_obj sys s) in
  Alcotest.(check int) "reply value stored" 99
    (Value.to_int s_obj.Kernel.state.(0))

(* --- FIFO processing of buffered messages --- *)

let p_flood = Pattern.intern "ts_flood" ~arity:1
let p_item = Pattern.intern "ts_item" ~arity:1

let test_buffered_fifo () =
  let seen = ref [] in
  let cls =
    Class_def.define ~name:"ts_fifo"
      ~methods:
        [
          ( p_flood,
            fun ctx _msg ->
              let self = Ctx.self ctx in
              for i = 1 to 5 do
                Ctx.send ctx self p_item [ Value.int i ]
              done );
          ( p_item,
            fun _ctx msg -> seen := Value.to_int (Message.arg msg 0) :: !seen );
        ]
      ()
  in
  let sys = System.boot ~nodes:1 ~classes:[ cls ] () in
  let a = System.create_root sys ~node:0 cls [] in
  System.send_boot sys a p_flood [ Value.int 0 ];
  System.run sys;
  Alcotest.(check (list int)) "buffered messages processed in order"
    [ 1; 2; 3; 4; 5 ] (List.rev !seen)

(* --- Preemption of a long-running method --- *)

let test_preemption () =
  let cls =
    Class_def.define ~name:"ts_long"
      ~methods:
        [
          ( p_go,
            fun ctx _msg ->
              for _ = 1 to 100 do
                Ctx.charge ctx 1000
              done );
        ]
      ()
  in
  let rt_config =
    { System.default_rt_config with Kernel.quantum_instr = 10_000 }
  in
  let sys = System.boot ~rt_config ~nodes:1 ~classes:[ cls ] () in
  let a = System.create_root sys ~node:0 cls [] in
  System.send_boot sys a p_go [ Value.int 0 ];
  System.run sys;
  let preempts = Simcore.Stats.get (System.stats sys) "preempt" in
  Alcotest.(check bool) "method was preempted" true (preempts >= 5);
  (* 100 x 1000 instructions of work happened despite preemption. *)
  Alcotest.(check bool) "work completed" true
    (System.elapsed sys >= Machine.Cost_model.time Machine.Cost_model.default 100_000)

(* --- Deep send chains fall back to the scheduling queue --- *)

let p_hop = Pattern.intern "ts_hop" ~arity:2

let test_depth_limit () =
  let cls_ref = ref None in
  let cls =
    Class_def.define ~name:"ts_chain" ~state:[| "hits" |]
      ~init:(fun _ -> [| Value.int 0 |])
      ~methods:
        [
          ( p_hop,
            fun ctx msg ->
              let remaining = Value.to_int (Message.arg msg 0) in
              let counter = Value.to_addr (Message.arg msg 1) in
              if remaining = 0 then Ctx.send ctx counter p_item [ Value.int 1 ]
              else begin
                let next = Ctx.create_local ctx (Option.get !cls_ref) [] in
                Ctx.send ctx next p_hop
                  [ Value.int (remaining - 1); Value.addr counter ]
              end );
          ( p_item,
            fun ctx _msg ->
              Ctx.set ctx 0 (Value.int (Value.to_int (Ctx.get ctx 0) + 1)) );
        ]
      ()
  in
  cls_ref := Some cls;
  let rt_config =
    { System.default_rt_config with Kernel.max_stack_depth = 4 }
  in
  let sys = System.boot ~rt_config ~nodes:1 ~classes:[ cls ] () in
  let a = System.create_root sys ~node:0 cls [] in
  System.send_boot sys a p_hop [ Value.int 40; Value.addr a ];
  System.run sys;
  let st = System.stats sys in
  Alcotest.(check bool) "some sends were depth-limited" true
    (Simcore.Stats.get st "send.local.depth_limited" > 0);
  let obj = Option.get (System.lookup_obj sys a) in
  Alcotest.(check int) "chain completed" 1 (Value.to_int obj.Kernel.state.(0))

(* --- Naive scheduling buffers everything but preserves semantics --- *)

let test_naive_scheduling () =
  let seen = ref [] in
  let cls =
    Class_def.define ~name:"ts_naive"
      ~methods:
        [
          ( p_flood,
            fun ctx _msg ->
              let self = Ctx.self ctx in
              for i = 1 to 3 do
                Ctx.send ctx self p_item [ Value.int i ]
              done );
          ( p_item,
            fun _ctx msg -> seen := Value.to_int (Message.arg msg 0) :: !seen );
        ]
      ()
  in
  let sys =
    System.boot ~rt_config:System.naive_rt_config ~nodes:1 ~classes:[ cls ] ()
  in
  let a = System.create_root sys ~node:0 cls [] in
  System.send_boot sys a p_flood [ Value.int 0 ];
  System.run sys;
  Alcotest.(check (list int)) "order preserved" [ 1; 2; 3 ] (List.rev !seen);
  let st = System.stats sys in
  Alcotest.(check int) "no stack-based invocations" 0
    (Simcore.Stats.get st "send.local.dormant");
  (* The bootstrap send and any send to a dormant object take the naive
     buffered path; self-sends while running hit the active-mode queuing
     procedure as usual. Nothing runs on the stack. *)
  Alcotest.(check int) "everything buffered"
    4
    (Simcore.Stats.get st "send.local.naive_buffered"
    + Simcore.Stats.get st "send.local.active")

(* --- Interrupt-driven delivery handles messages mid-computation --- *)

let p_crunch = Pattern.intern "ts_crunch" ~arity:0
let p_ding = Pattern.intern "ts_ding" ~arity:0
let p_kick = Pattern.intern "ts_kick" ~arity:1

let test_interrupt_mid_method_delivery () =
  let run delivery =
    let b_time = ref 0 and a_end = ref 0 in
    let cruncher =
      Class_def.define ~name:"ts_cruncher"
        ~methods:
          [
            ( p_crunch,
              fun ctx _ ->
                for _ = 1 to 50 do
                  Ctx.charge ctx 1000
                done;
                a_end := Ctx.now ctx );
          ]
        ()
    in
    let bell =
      Class_def.define ~name:"ts_bell"
        ~methods:[ (p_ding, fun ctx _ -> b_time := Ctx.now ctx) ]
        ()
    in
    let kicker =
      Class_def.define ~name:"ts_kicker"
        ~methods:
          [
            ( p_kick,
              fun ctx msg ->
                Ctx.send ctx (Value.to_addr (Message.arg msg 0)) p_ding [] );
          ]
        ()
    in
    let machine_config = { Machine.Engine.default_config with Machine.Engine.delivery } in
    let rt_config =
      { System.default_rt_config with Kernel.quantum_instr = max_int }
    in
    let sys =
      System.boot ~machine_config ~rt_config ~nodes:2
        ~classes:[ cruncher; bell; kicker ] ()
    in
    let a = System.create_root sys ~node:1 cruncher [] in
    let b = System.create_root sys ~node:1 bell [] in
    let k = System.create_root sys ~node:0 kicker [] in
    System.send_boot sys a p_crunch [];
    System.send_boot sys k p_kick [ Value.addr b ];
    System.run sys;
    (!b_time, !a_end)
  in
  let b_poll, a_poll = run Machine.Engine.Polling in
  let b_int, a_int = run Machine.Engine.Interrupt in
  (* Polling: the bell waits for the cruncher's method to finish (the
     quantum is disabled, so no preemption point polls either). *)
  Alcotest.(check bool) "polling serves the bell after the crunch" true
    (b_poll >= a_poll);
  (* Interrupt: arrival interrupts the computation mid-method. *)
  Alcotest.(check bool) "interrupt serves the bell mid-crunch" true
    (b_int < a_int)

(* --- Errors and retirement --- *)

let p_unknown = Pattern.intern "ts_unknown" ~arity:0

let test_not_understood () =
  let cls = Class_def.define ~name:"ts_empty" ~methods:[ (p_go, fun _ _ -> ()) ] () in
  let sys = System.boot ~nodes:1 ~classes:[ cls ] () in
  let a = System.create_root sys ~node:0 cls [] in
  System.send_boot sys a p_unknown [];
  (match System.run sys with
  | () -> Alcotest.fail "expected Not_understood"
  | exception Kernel.Not_understood { cls_name; pattern } ->
      Alcotest.(check string) "class" "ts_empty" cls_name;
      Alcotest.(check string) "pattern" "ts_unknown" (Pattern.name pattern))

let p_die = Pattern.intern "ts_die" ~arity:0

let test_retire () =
  let cls =
    Class_def.define ~name:"ts_mortal"
      ~methods:[ (p_die, fun ctx _ -> Ctx.retire ctx) ]
      ()
  in
  let sys = System.boot ~nodes:1 ~classes:[ cls ] () in
  let a = System.create_root sys ~node:0 cls [] in
  Alcotest.(check bool) "alive" true (Option.is_some (System.lookup_obj sys a));
  System.send_boot sys a p_die [];
  System.run sys;
  Alcotest.(check bool) "retired" true (Option.is_none (System.lookup_obj sys a))

(* --- Optimised sends --- *)

let test_inlined_active_fallback () =
  let ran = ref 0 in
  let cls_ref = ref None in
  let cls =
    Class_def.define ~name:"ts_inl"
      ~methods:
        [
          (p_item, fun _ctx _msg -> incr ran);
          ( p_go,
            fun ctx _msg ->
              let self = Ctx.self ctx in
              (* The receiver (self) is active: inlining must fall back to
                 the queuing procedure instead of re-entering the body. *)
              Ctx.send_inlined ctx (Option.get !cls_ref) self p_item
                [ Value.int 1 ] );
        ]
      ()
  in
  cls_ref := Some cls;
  let sys = System.boot ~nodes:1 ~classes:[ cls ] () in
  let a = System.create_root sys ~node:0 cls [] in
  System.send_boot sys a p_go [ Value.int 0 ];
  System.run sys;
  Alcotest.(check int) "buffered message eventually ran" 1 !ran;
  let st = System.stats sys in
  Alcotest.(check int) "buffered, not inlined" 1
    (Simcore.Stats.get st "send.local.active");
  Alcotest.(check int) "no inlined fast path" 0
    (Simcore.Stats.get st "send.local.inlined")

let test_inlined_dormant_fast_path () =
  let ran = ref 0 in
  let cls_ref = ref None in
  let sink =
    Class_def.define ~name:"ts_inl_sink"
      ~methods:[ (p_item, fun _ctx _msg -> incr ran) ]
      ()
  in
  cls_ref := Some sink;
  let driver =
    Class_def.define ~name:"ts_inl_drv"
      ~methods:
        [
          ( p_go,
            fun ctx _msg ->
              let target = Ctx.create_local ctx sink [] in
              Ctx.send_inlined ctx sink target p_item [ Value.int 1 ];
              Ctx.send_inlined ctx sink target p_item [ Value.int 2 ] );
        ]
      ()
  in
  let sys = System.boot ~nodes:1 ~classes:[ sink; driver ] () in
  let d = System.create_root sys ~node:0 driver [] in
  System.send_boot sys d p_go [ Value.int 0 ];
  System.run sys;
  Alcotest.(check int) "both ran" 2 !ran;
  let st = System.stats sys in
  (* The first send hits the init table (lazy initialisation) and takes
     the generic path; once initialised and dormant the second is inlined. *)
  Alcotest.(check bool) "inlined fast path taken" true
    (Simcore.Stats.get st "send.local.inlined" >= 1)

let test_leaf_blocking_forbidden () =
  let cls_ref = ref None in
  let cls =
    Class_def.define ~name:"ts_leafbad"
      ~methods:
        [
          ( p_item,
            fun ctx _msg ->
              (* A "leaf" method that blocks: programming error. *)
              ignore (Ctx.wait_for ctx [ p_go ]) );
          ( p_go,
            fun ctx _msg ->
              let target = Ctx.create_local ctx (Option.get !cls_ref) [] in
              Ctx.send_leaf ctx (Option.get !cls_ref) target p_item
                [ Value.int 0 ] );
        ]
      ()
  in
  cls_ref := Some cls;
  let sys = System.boot ~nodes:1 ~classes:[ cls ] () in
  let a = System.create_root sys ~node:0 cls [] in
  System.send_boot sys a p_go [ Value.int 0 ];
  match System.run sys with
  | () -> Alcotest.fail "expected Failure"
  | exception Failure m ->
      Alcotest.(check string) "diagnostic"
        "Sched.block: a leaf-optimised method attempted to block" m

(* --- The activation stack stays balanced ---

   Every method fiber pushes one activation entry when it starts or
   resumes and pops it when it returns, raises or blocks. Each scenario
   below ends with no invocation open on any node. *)

let assert_balanced sys =
  for node = 0 to System.node_count sys - 1 do
    let rt = System.rt sys node in
    Alcotest.(check int) (Printf.sprintf "node %d depth" node) 0 rt.Kernel.depth;
    Alcotest.(check int)
      (Printf.sprintf "node %d activation stack" node)
      0 rt.Kernel.act_len
  done;
  Alcotest.(check bool)
    "survey sees no open invocation" true
    ((Diagnostics.survey sys).Diagnostics.unbalanced = [])

let p_ask = Pattern.intern "ts_ask" ~arity:0
let p_call = Pattern.intern "ts_call" ~arity:1
let p_go2 = Pattern.intern "ts_go2" ~arity:2

(* An echo server that answers now-type requests with 7. *)
let echo_cls () =
  Class_def.define ~name:"ts_echo"
    ~methods:[ (p_ask, fun ctx msg -> Ctx.reply ctx msg (Value.int 7)) ]
    ()

let test_balance_reply_wait_inlined () =
  let echo = echo_cls () in
  let got = ref [] in
  let asker =
    Class_def.define ~name:"ts_asker"
      ~methods:
        [
          ( p_call,
            fun ctx msg ->
              (* The server is on another node: the now-type send blocks
                 the inlined invocation until the reply arrives. *)
              let server = Value.to_addr (Message.arg msg 0) in
              got := Value.to_int (Ctx.send_now ctx server p_ask []) :: !got );
        ]
      ()
  in
  let caller =
    Class_def.define ~name:"ts_asker_drv"
      ~methods:
        [
          ( p_go2,
            fun ctx msg ->
              let target = Value.to_addr (Message.arg msg 0) in
              Ctx.send_inlined ctx asker target p_call [ Message.arg msg 1 ] );
        ]
      ()
  in
  let sys = System.boot ~nodes:2 ~classes:[ echo; asker; caller ] () in
  let server = System.create_root sys ~node:1 echo [] in
  let target = System.create_root sys ~node:0 asker [] in
  let d = System.create_root sys ~node:0 caller [] in
  (* The first call initialises the asker through the generic path; the
     caller's call then finds it dormant and enters the body inline. *)
  System.send_boot sys target p_call [ Value.addr server ];
  System.run sys;
  System.send_boot sys d p_go2 [ Value.addr target; Value.addr server ];
  System.run sys;
  Alcotest.(check (list int)) "both replies received" [ 7; 7 ] !got;
  let st = System.stats sys in
  Alcotest.(check int) "the second call was inlined" 1
    (Simcore.Stats.get st "send.local.inlined");
  Alcotest.(check int) "both waits blocked" 2 (Simcore.Stats.get st "reply.blocked");
  assert_balanced sys

let test_balance_preempted () =
  let inner =
    Class_def.define ~name:"ts_long_inner"
      ~methods:
        [
          ( p_go,
            fun ctx _msg ->
              for _ = 1 to 40 do
                Ctx.charge ctx 1000
              done );
        ]
      ()
  in
  let outer =
    Class_def.define ~name:"ts_long_outer"
      ~methods:
        [
          ( p_go,
            fun ctx msg ->
              (* A nested dormant invocation that is preempted (on a
                 fiber of its own, beneath the sender's). *)
              Ctx.send ctx (Value.to_addr (Message.arg msg 0)) p_go [ Value.int 0 ];
              for _ = 1 to 40 do
                Ctx.charge ctx 1000
              done );
        ]
      ()
  in
  let rt_config = { System.default_rt_config with Kernel.quantum_instr = 5_000 } in
  let sys = System.boot ~rt_config ~nodes:1 ~classes:[ inner; outer ] () in
  let i = System.create_root sys ~node:0 inner [] in
  let o = System.create_root sys ~node:0 outer [] in
  System.send_boot sys o p_go [ Value.addr i ];
  System.run sys;
  Alcotest.(check bool) "preempted repeatedly" true
    (Simcore.Stats.get (System.stats sys) "preempt" >= 10);
  assert_balanced sys

let p_read = Pattern.intern "ts_ma_read" ~arity:2
let p_note = Pattern.intern "ts_note" ~arity:0

let test_balance_multiactive () =
  let echo = echo_cls () in
  let notes = ref 0 in
  let noter =
    Class_def.define ~name:"ts_noter" ~methods:[ (p_note, fun _ _ -> incr notes) ] ()
  in
  let finished = ref 0 in
  let reader =
    Class_def.define ~name:"ts_ma_reader"
      ~methods:
        [
          ( p_read,
            fun ctx msg ->
              (* A nested dormant send, then a remote now-type wait: the
                 activation blocks and resumes under its group. *)
              Ctx.send ctx (Value.to_addr (Message.arg msg 0)) p_note [];
              ignore (Ctx.send_now ctx (Value.to_addr (Message.arg msg 1)) p_ask []);
              incr finished );
        ]
      ()
  in
  Multiactive.declare reader ~budget:4 ~groups:[ ("reads", [ "ts_ma_read" ]) ] ();
  let sys = System.boot ~nodes:2 ~classes:[ echo; noter; reader ] () in
  let server = System.create_root sys ~node:1 echo [] in
  let n = System.create_root sys ~node:0 noter [] in
  let r = System.create_root sys ~node:0 reader [] in
  for _ = 1 to 3 do
    System.send_boot sys r p_read [ Value.addr n; Value.addr server ]
  done;
  System.run sys;
  Alcotest.(check int) "every activation finished" 3 !finished;
  Alcotest.(check int) "every nested send ran" 3 !notes;
  let st = System.stats sys in
  Alcotest.(check bool) "activations overlapped" true
    (Simcore.Stats.get st "ma.overlap" >= 1);
  let m = Sched.ma_state (Option.get (System.lookup_obj sys r)) in
  Alcotest.(check int) "running set empty" 0 m.Kernel.mar_count;
  Alcotest.(check int) "no group still running" 0
    (Array.fold_left ( + ) 0 m.Kernel.mar_running);
  assert_balanced sys

let test_balance_not_understood () =
  let ran = ref 0 in
  let cls =
    Class_def.define ~name:"ts_confused"
      ~methods:
        [
          ( p_go,
            fun ctx msg ->
              (* Nested dispatch of a pattern the receiver lacks. *)
              Ctx.send ctx (Value.to_addr (Message.arg msg 0)) p_unknown [] );
          (p_item, fun _ _ -> incr ran);
        ]
      ()
  in
  let sys = System.boot ~nodes:2 ~classes:[ cls ] () in
  let a = System.create_root sys ~node:0 cls [] in
  let b = System.create_root sys ~node:0 cls [] in
  let c = System.create_root sys ~node:0 cls [] in
  System.send_boot sys a p_go [ Value.addr b ];
  (match System.run sys with
  | () -> Alcotest.fail "expected Not_understood"
  | exception Kernel.Not_understood _ -> ());
  assert_balanced sys;
  (* The aborted slice left node 0 marked busy, so the next message
     reaches it over the network, which wakes it. *)
  System.send_boot sys ~from:1 c p_item [ Value.int 1 ];
  System.run sys;
  Alcotest.(check int) "a later run still dispatches on the node" 1 !ran;
  assert_balanced sys

(* Allocation regression: a local send to a dormant object costs its
   message and a small constant of dispatch bookkeeping. The bound is
   far below the ~65 words the per-invocation handler, [Fun.protect]
   frame and body closure used to cost. *)
let test_dispatch_alloc_bound () =
  let sink = Class_def.define ~name:"ts_sink" ~methods:[ (p_item, fun _ _ -> ()) ] () in
  let caller =
    Class_def.define ~name:"ts_sender"
      ~methods:
        [
          ( p_hop,
            fun ctx msg ->
              let n = Value.to_int (Message.arg msg 0) in
              let target = Value.to_addr (Message.arg msg 1) in
              let args = [ Value.int 1 ] in
              for _ = 1 to n do
                Ctx.send ctx target p_item args
              done );
        ]
      ()
  in
  let sys = System.boot ~nodes:1 ~classes:[ sink; caller ] () in
  let s = System.create_root sys ~node:0 sink [] in
  let d = System.create_root sys ~node:0 caller [] in
  (* Warm-up: initialises both objects and builds the node's handler. *)
  System.send_boot sys d p_hop [ Value.int 10; Value.addr s ];
  System.run sys;
  let n = 20_000 in
  let dormant () = Simcore.Stats.get (System.stats sys) "send.local.dormant" in
  let dormant_before = dormant () in
  System.send_boot sys d p_hop [ Value.int n; Value.addr s ];
  let before = Gc.minor_words () in
  System.run sys;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "every send was a dormant dispatch" (n + 1)
    (dormant () - dormant_before);
  let per = words /. float_of_int n in
  if per > 32. then
    Alcotest.failf "%.1f minor words per dormant dispatch (bound 32)" per;
  assert_balanced sys

let () =
  Alcotest.run "sched"
    [
      ( "paper scenarios",
        [
          Alcotest.test_case "figure 1" `Quick test_figure1;
          Alcotest.test_case "figure 3" `Quick test_figure3;
        ] );
      ( "scheduling",
        [
          Alcotest.test_case "buffered fifo" `Quick test_buffered_fifo;
          Alcotest.test_case "preemption" `Quick test_preemption;
          Alcotest.test_case "depth limit" `Quick test_depth_limit;
          Alcotest.test_case "naive mode" `Quick test_naive_scheduling;
          Alcotest.test_case "interrupt mid-method" `Quick
            test_interrupt_mid_method_delivery;
        ] );
      ( "errors",
        [
          Alcotest.test_case "not understood" `Quick test_not_understood;
          Alcotest.test_case "retire" `Quick test_retire;
        ] );
      ( "optimised sends",
        [
          Alcotest.test_case "inlined active fallback" `Quick
            test_inlined_active_fallback;
          Alcotest.test_case "inlined dormant fast path" `Quick
            test_inlined_dormant_fast_path;
          Alcotest.test_case "leaf cannot block" `Quick
            test_leaf_blocking_forbidden;
        ] );
      ( "activation stack",
        [
          Alcotest.test_case "reply wait inside an inlined invocation" `Quick
            test_balance_reply_wait_inlined;
          Alcotest.test_case "preempted nested method" `Quick
            test_balance_preempted;
          Alcotest.test_case "multiactive after a nested send" `Quick
            test_balance_multiactive;
          Alcotest.test_case "not understood, then a run" `Quick
            test_balance_not_understood;
          Alcotest.test_case "dormant dispatch allocation bound" `Quick
            test_dispatch_alloc_bound;
        ] );
    ]
