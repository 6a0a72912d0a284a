open Kernel
module Cost_model = Machine.Cost_model

let alloc_slot rt =
  (* Reclaimed slots are reused before the watermark grows: garbage
     collection is the allocation (and chunk-stock refill) path. *)
  match Queue.take_opt rt.free_slots with
  | Some slot ->
      rt.slots_recycled <- rt.slots_recycled + 1;
      bump (ctrs rt).c_slot_recycled;
      slot
  | None ->
      let slot = rt.next_slot in
      rt.next_slot <- slot + 1;
      slot

let recycle_slot rt slot = Queue.push slot rt.free_slots

let register_obj rt obj = Hashtbl.replace rt.objects obj.phys_slot obj

let make_embryo rt slot =
  (* A chunk pre-initialised as in Section 5.2: empty message queue and
     the generic fault table, so that any message racing ahead of the
     creation request is enqueued. *)
  let obj =
    {
      self = { Value.node = Machine.Node.id rt.node; slot };
      phys_slot = slot;
      cls = None;
      state = [||];
      vftp = rt.shared.fault_tbl;
      mq = Queue.create ();
      in_sched_q = false;
      blocked = None;
      initialized = false;
      pending_ctor_args = [];
      exported = false;
      gc_pinned = false;
      ma = None;
    }
  in
  Hashtbl.add rt.objects slot obj;
  Machine.Node.heap_alloc_words rt.node 8;
  obj

let lookup_or_embryo rt slot =
  match Hashtbl.find_opt rt.objects slot with
  | Some o -> o
  | None ->
      if slot < 0 || slot >= rt.next_slot then
        invalid_arg
          (Printf.sprintf "Sched: slot %d was never allocated on node %d" slot
             (Machine.Node.id rt.node));
      make_embryo rt slot

let rest_table obj =
  let cls = obj_class obj in
  if not obj.initialized then Vft.init cls
  else
    match cls.cls_ma with
    | Some _ -> Vft.multiactive cls
    | None -> Vft.dormant cls

let mode_of obj = Vft.kind_name obj.vftp.vft_kind

let block rt reason =
  if rt.leaf_depth > 0 then
    failwith "Sched.block: a leaf-optimised method attempted to block";
  Effect.perform (Block reason)

(* Lazy state-variable initialisation (Section 4.2): runs on the first
   method invocation instead of at creation, so creation itself stays a
   cheap allocation. *)
let do_init rt obj =
  let cls = obj_class obj in
  let args = obj.pending_ctor_args in
  obj.pending_ctor_args <- [];
  obj.state <- cls.cls_init args;
  obj.initialized <- true;
  let c = cost rt in
  charge rt (4 + (Array.length obj.state * c.Cost_model.frame_store_per_word));
  Machine.Node.heap_alloc_words rt.node (2 + Array.length obj.state)

let buffer_message rt obj msg =
  let c = cost rt in
  let words = Message.size_words msg in
  charge rt
    (c.Cost_model.frame_alloc
    + (words * c.Cost_model.frame_store_per_word)
    + c.Cost_model.mq_enqueue);
  Machine.Node.heap_alloc_words rt.node (4 + words);
  Queue.push msg obj.mq

(* --- multiactive activation management (lib/multiactive, ISSUE 8) ---

   A class with a compatibility declaration replaces its dormant/active
   table pair with one admission table ([Vft.multiactive]) that stays
   installed while activations run: each entry either starts the method
   as a member of the object's bounded running set, or parks the
   message on its compatibility group's FIFO queue. Completion pumps
   the queues. Senders still never test receiver state. *)

(* Test-only corruption hook: admit even incompatible messages, so the
   serialization-violation probe and the qcheck property have a real
   bug to catch. Never set outside tests. *)
let ma_unsafe_force_admit = ref false

let ma_spec_of obj =
  match (obj_class obj).cls_ma with
  | Some s -> s
  | None -> invalid_arg "Sched: object is not multiactive"

let ma_state obj =
  match obj.ma with
  | Some m -> m
  | None ->
      let spec = ma_spec_of obj in
      let n = Array.length spec.ma_group_names in
      let m =
        {
          mar_running = Array.make n 0;
          mar_count = 0;
          mar_queues = Array.init n (fun _ -> Queue.create ());
          mar_queued = 0;
          mar_seq = 0;
          mar_pump_posted = false;
          mar_draining = false;
          mar_on_drained = None;
          mar_peak = 0;
          mar_admitted = 0;
        }
      in
      obj.ma <- Some m;
      m

(* [group] may overlap the current running set iff it is compatible
   with every group that has a live activation. *)
let ma_compatible spec m group =
  let ok = ref true in
  Array.iteri
    (fun g n -> if n > 0 && not spec.ma_compat.(group).(g) then ok := false)
    m.mar_running;
  !ok

(* --- the activation stack and the node's one effect handler ---

   The paper's dormant send is a plain call: nothing is heap-allocated
   unless the method blocks. The host analogue: every method fiber on a
   node runs under one handler, built at the node's first invocation,
   and the per-node activation stack tells it which object finished
   (run [end_of_method]) or blocked (park a context for it). An entry is
   pushed when a fiber starts or resumes and popped when it returns,
   raises or blocks, so the stack nests exactly like the fibers. *)

(* Test-only corruption hook: a finishing method leaves its activation
   entry behind, the imbalance {!Diagnostics.survey} must flag. Never
   set outside tests. *)
let unsafe_leak_activation = ref false

let act_push rt obj group =
  let n = rt.act_len in
  if n = Array.length rt.act_objs then begin
    let cap = if n = 0 then 16 else 2 * n in
    let objs = Array.make cap no_obj and groups = Array.make cap 0 in
    Array.blit rt.act_objs 0 objs 0 n;
    Array.blit rt.act_groups 0 groups 0 n;
    rt.act_objs <- objs;
    rt.act_groups <- groups
  end;
  rt.act_objs.(n) <- obj;
  rt.act_groups.(n) <- group;
  rt.act_len <- n + 1

let act_pop rt =
  let n = rt.act_len - 1 in
  rt.act_objs.(n) <- no_obj;
  rt.act_len <- n

(* The fiber body: static, so starting a method allocates only its
   context and this argument tuple. *)
let run_body (impl, ctx, msg) = impl ctx msg

let lower_depth rt = rt.depth <- rt.depth - 1

let reraise_after f x e =
  let bt = Printexc.get_raw_backtrace () in
  f x;
  Printexc.raise_with_backtrace e bt

let rec schedule_pending rt obj =
  if not obj.in_sched_q then begin
    obj.in_sched_q <- true;
    charge rt (cost rt).Cost_model.sched_enqueue;
    Machine.Engine.post (machine rt) rt.node (fun () -> run_pending rt obj)
  end

(* Invoked when the object is dequeued from the node-global scheduling
   queue: process the next buffered message through the method table. *)
and run_pending rt obj =
  obj.in_sched_q <- false;
  (* The object may have migrated away between enqueue and this dequeue;
     its record is now a forwarding stub (empty queue, frames carried to
     the new home) and the stale scheduling entry must not clobber it. *)
  match obj.vftp.vft_kind with
  | Vft_forward _ -> ()
  | _ -> (
  assert (Option.is_none obj.blocked);
  match Queue.take_opt obj.mq with
  | None ->
      (* All buffered messages were consumed by a selective reception
         scan in the meantime; fall back to the quiescent table. *)
      charge rt (cost rt).Cost_model.switch_vft;
      obj.vftp <- rest_table obj
  | Some msg -> (
      charge rt (cost rt).Cost_model.mq_dequeue;
      let tbl = rest_table obj in
      match entry_at tbl msg.Message.pattern with
      | Invoke impl -> run_invoke rt obj impl msg ~init_first:false
      | Invoke_init impl -> run_invoke rt obj impl msg ~init_first:true
      | Ma_admit { impl; group } ->
          (* Keep funnelling through the buffer while it holds messages
             (arrivals still append behind the backlog), so the
             init-window backlog keeps its arrival order; switch to the
             admission table only once the buffer drains. *)
          ma_deliver rt obj impl ~group msg ~oc:(ctrs rt).sent_local;
          if not (Queue.is_empty obj.mq) then schedule_pending rt obj
          else if obj.vftp.vft_kind = Vft_active then begin
            charge rt (cost rt).Cost_model.switch_vft;
            obj.vftp <- tbl
          end
      | No_method ->
          raise
            (Not_understood
               { cls_name = (obj_class obj).cls_name; pattern = msg.pattern })
      | Enqueue | Restore | Forward ->
          (* method tables contain only Invoke*/No_method entries *)
          assert false))

and run_invoke rt obj impl msg ~init_first =
  rt.depth <- rt.depth + 1;
  if rt.depth = 1 then rt.work_since_yield <- 0;
  let c = cost rt in
  charge rt c.Cost_model.switch_vft;
  obj.vftp <- rt.shared.enqueue_all;
  run_fiber rt obj ~group:(-1) impl msg ~init_first

(* Runs [impl] on [obj] as a fiber under the node's handler. The caller
   raised [depth]; it is lowered here however the fiber leaves. *)
and run_fiber rt obj ~group impl msg ~init_first =
  match
    if init_first then do_init rt obj;
    act_push rt obj group;
    Effect.Deep.match_with run_body
      (impl, { rt; self_obj = obj }, msg)
      (fiber_handler rt)
  with
  | () -> lower_depth rt
  | exception e -> reraise_after lower_depth rt e

and fiber_handler rt =
  match rt.fiber_handler with
  | Some h -> h
  | None ->
      let h =
        {
          Effect.Deep.retc =
            (fun () ->
              let n = rt.act_len - 1 in
              let obj = rt.act_objs.(n) and group = rt.act_groups.(n) in
              if not !unsafe_leak_activation then act_pop rt;
              if group < 0 then end_of_method rt obj
              else ma_end_of_activation rt obj ~group);
          exnc =
            (fun e ->
              act_pop rt;
              raise e);
          effc =
            (fun (type a) (eff : a Effect.t) ->
              match eff with
              | Block reason ->
                  Some
                    (fun (k : (a, unit) Effect.Deep.continuation) ->
                      handle_block rt reason k)
              | _ -> None);
        }
      in
      rt.fiber_handler <- Some h;
      h

(* Table 2's tail: check the message queue, switch the VFTP back, poll
   for remote messages, adjust the stack pointer and return. *)
and end_of_method rt obj =
  let c = cost rt in
  charge rt c.Cost_model.check_message_queue;
  if not (Queue.is_empty obj.mq) then schedule_pending rt obj
  else begin
    charge rt c.Cost_model.switch_vft;
    obj.vftp <- rest_table obj
  end;
  charge rt c.Cost_model.poll_remote;
  Machine.Engine.poll (machine rt) rt.node;
  charge rt c.Cost_model.stack_adjust_return

(* The innermost fiber blocked: its activation entry names the object
   (and group) whose context is parked. *)
and handle_block :
    node_rt -> block_reason -> (resume, unit) Effect.Deep.continuation -> unit
    =
 fun rt reason k ->
  let n = rt.act_len - 1 in
  let obj = rt.act_objs.(n) and group = rt.act_groups.(n) in
  act_pop rt;
  let b = { bk = k; owner = obj; bgroup = group; why = reason } in
  let c = cost rt in
  charge rt c.Cost_model.context_save;
  Machine.Node.heap_alloc_words rt.node 16;
  match reason with
  | Wait_reply rd ->
      (* The sender parks its context on the reply destination; its own
         VFTP is already the all-queuing table, as the paper requires. *)
      assert (Option.is_none rd.blocked);
      rd.blocked <- Some b;
      bump (ctrs rt).c_reply_blocked
  | Wait_patterns patterns ->
      charge rt c.Cost_model.switch_vft;
      obj.vftp <- Vft.waiting (obj_class obj) patterns;
      assert (Option.is_none obj.blocked);
      obj.blocked <- Some b;
      bump (ctrs rt).c_wait_blocked
  | Wait_chunk target ->
      if Array.length rt.chunk_waiters = 0 then
        rt.chunk_waiters <-
          Array.init (Array.length rt.stocks) (fun _ -> Queue.create ());
      Queue.push b rt.chunk_waiters.(target);
      bump (ctrs rt).c_chunk_stall
  | Preempted ->
      rt.work_since_yield <- 0;
      charge rt c.Cost_model.sched_enqueue;
      bump (ctrs rt).c_preempt;
      rt.preempt_pending <- rt.preempt_pending + 1;
      Machine.Engine.post (machine rt) rt.node (fun () ->
          rt.preempt_pending <- rt.preempt_pending - 1;
          resume rt b R_go)

and resume rt b r =
  charge rt (cost rt).Cost_model.context_restore;
  rt.depth <- rt.depth + 1;
  act_push rt b.owner b.bgroup;
  match Effect.Deep.continue b.bk r with
  | () -> lower_depth rt
  | exception e -> reraise_after lower_depth rt e

and local_deliver ?(origin = `Local) rt obj msg =
  let c = cost rt in
  let config = rt.shared.config in
  (* Statistics distinguish locally sent messages from the receiver-side
     dispatch of inter-node messages (already counted as send.remote). *)
  let oc =
    match origin with
    | `Local -> (ctrs rt).sent_local
    | `Remote -> (ctrs rt).recv_remote
  in
  charge rt c.Cost_model.vft_lookup_call;
  match entry_at obj.vftp msg.Message.pattern with
  | Invoke impl -> deliver_invoke rt obj impl msg ~init_first:false ~oc
  | Invoke_init impl -> deliver_invoke rt obj impl msg ~init_first:true ~oc
  | Ma_admit { impl; group } -> ma_deliver rt obj impl ~group msg ~oc
  | Enqueue ->
      let kind = obj.vftp.vft_kind in
      if config.discard_unacceptable && (match kind with Vft_waiting _ -> true | _ -> false)
      then bump oc.o_discarded
      else begin
        (match kind with
        | Vft_fault -> bump oc.o_fault
        | _ -> bump oc.o_active);
        buffer_message rt obj msg
      end
  | Restore -> (
      match obj.blocked with
      | Some b ->
          obj.blocked <- None;
          charge rt c.Cost_model.switch_vft;
          obj.vftp <- rt.shared.enqueue_all;
          bump oc.o_restore;
          if rt.depth >= config.max_stack_depth then
            Machine.Engine.post (machine rt) rt.node (fun () ->
                resume rt b (R_msg msg))
          else resume rt b (R_msg msg)
      | None -> assert false)
  | Forward -> (
      (* Forwarding-stub table: the object migrated away. The entry
         itself is the re-posting procedure — senders never test. *)
      match rt.shared.migration with
      | Some m -> m.mig_forward rt obj msg
      | None -> assert false)
  | No_method ->
      raise
        (Not_understood
           { cls_name = (obj_class obj).cls_name; pattern = msg.pattern })

and deliver_invoke rt obj impl msg ~init_first ~oc =
  let config = rt.shared.config in
  match config.sched_kind with
  | Naive ->
      bump oc.o_naive_buffered;
      buffer_message rt obj msg;
      schedule_pending rt obj
  | Hybrid ->
      if rt.depth >= config.max_stack_depth then begin
        bump oc.o_depth_limited;
        buffer_message rt obj msg;
        schedule_pending rt obj
      end
      else begin
        bump oc.o_dormant;
        run_invoke rt obj impl msg ~init_first
      end

(* Admission control for multiactive objects. The message either joins
   the running set now or parks on its group's FIFO queue; a recorded
   decision point lets the explorer defer an otherwise-admissible
   message, exercising the queue/pump path under any schedule.

   The no-overtake rule: besides compatibility with every running
   activation, direct admission requires that the message's own group
   queue is empty (starts stay FIFO within a group) and that no
   incompatible group holds queued messages (a stream of compatible
   arrivals cannot starve a parked exclusive request — classic
   writer starvation under read-heavy load). *)
and ma_deliver rt obj impl ~group msg ~oc =
  let config = rt.shared.config in
  let m = ma_state obj in
  let spec = ma_spec_of obj in
  let overtakes_queued =
    m.mar_queued > 0
    && (let blocked = ref false in
        Array.iteri
          (fun g q ->
            if
              not (Queue.is_empty q)
              && (g = group || not spec.ma_compat.(group).(g))
            then blocked := true)
          m.mar_queues;
        !blocked)
  in
  let admissible =
    config.sched_kind = Hybrid
    && (not m.mar_draining)
    && rt.depth < config.max_stack_depth
    && m.mar_count < spec.ma_budget
    && ((ma_compatible spec m group && not overtakes_queued)
       || !ma_unsafe_force_admit)
  in
  if admissible && Machine.Engine.decide (machine rt) "ma.admit.defer" 2 = 0
  then begin
    bump oc.o_dormant;
    ma_run_activation rt obj impl ~group msg
  end
  else begin
    bump oc.o_active;
    bump (ctrs rt).c_ma_queued;
    ma_queue_message rt obj m msg ~group
  end

and ma_queue_message rt obj m msg ~group =
  let c = cost rt in
  let words = Message.size_words msg in
  charge rt
    (c.Cost_model.frame_alloc
    + (words * c.Cost_model.frame_store_per_word)
    + c.Cost_model.mq_enqueue);
  Machine.Node.heap_alloc_words rt.node (4 + words);
  Queue.push (m.mar_seq, msg) m.mar_queues.(group);
  m.mar_seq <- m.mar_seq + 1;
  m.mar_queued <- m.mar_queued + 1;
  (* No lost wakeup: with an empty running set nothing will ever reach
     [ma_end_of_activation] to pump this message back out. *)
  if m.mar_count = 0 && (not m.mar_pump_posted) && not m.mar_draining then
    schedule_ma_pump rt obj

and ma_run_activation rt obj impl ~group msg =
  let c = cost rt in
  let m = ma_state obj in
  let spec = ma_spec_of obj in
  if m.mar_count > 0 && not (ma_compatible spec m group) then
    (* Only the test-only forced-admission hook can get here. *)
    bump (ctrs rt).c_ma_conflict;
  m.mar_running.(group) <- m.mar_running.(group) + 1;
  m.mar_count <- m.mar_count + 1;
  m.mar_admitted <- m.mar_admitted + 1;
  if m.mar_count > m.mar_peak then m.mar_peak <- m.mar_count;
  if m.mar_count >= 2 then bump (ctrs rt).c_ma_overlap;
  bump (ctrs rt).c_ma_admit;
  rt.depth <- rt.depth + 1;
  if rt.depth = 1 then rt.work_since_yield <- 0;
  (* The admission table stays installed — that is the point — so the
     only table work is the running-set bookkeeping. *)
  charge rt c.Cost_model.switch_vft;
  let prev_scale = rt.ma_scale in
  (* Charge scale = the overlap degree a worker pool would achieve on
     the compatible work at hand: live activations plus queued messages
     of groups this one may overlap (a backlog of compatible reads
     drains [ma_cores] at a time on real hardware even though the
     simulator pumps them sequentially), capped by the activation
     budget and the per-object worker count. *)
  let avail = ref m.mar_count in
  Array.iteri
    (fun g q ->
      if spec.ma_compat.(group).(g) then avail := !avail + Queue.length q)
    m.mar_queues;
  rt.ma_scale <-
    min (min !avail spec.ma_budget) rt.shared.config.ma_cores;
  match run_fiber rt obj ~group impl msg ~init_first:(not obj.initialized) with
  | () -> rt.ma_scale <- prev_scale
  | exception e ->
      reraise_after (fun scale -> rt.ma_scale <- scale) prev_scale e

and ma_end_of_activation rt obj ~group =
  let c = cost rt in
  let m = ma_state obj in
  charge rt c.Cost_model.check_message_queue;
  (* Poll before releasing the slot: arrivals dispatched by this poll
     are admitted while the finishing activation still occupies its set
     entry — that is where overlap (and the multicore speedup) comes
     from under backlog. *)
  charge rt c.Cost_model.poll_remote;
  Machine.Engine.poll (machine rt) rt.node;
  m.mar_running.(group) <- m.mar_running.(group) - 1;
  m.mar_count <- m.mar_count - 1;
  if m.mar_queued > 0 && (not m.mar_pump_posted) && not m.mar_draining then
    schedule_ma_pump rt obj;
  if m.mar_draining && m.mar_count = 0 then (
    match m.mar_on_drained with
    | Some f ->
        m.mar_on_drained <- None;
        f ()
    | None -> ());
  charge rt c.Cost_model.stack_adjust_return

and schedule_ma_pump rt obj =
  let m = ma_state obj in
  m.mar_pump_posted <- true;
  charge rt (cost rt).Cost_model.sched_enqueue;
  Machine.Engine.post (machine rt) rt.node (fun () -> ma_pump rt obj)

(* Drain the group queues back into the running set, eldest first
   within each group; when several groups are eligible a recorded
   decision point picks, so the explorer can sweep cross-group orders. *)
and ma_pump rt obj =
  let m = ma_state obj in
  m.mar_pump_posted <- false;
  match obj.vftp.vft_kind with
  | Vft_forward _ ->
      (* Migrated away between post and run; the queues were flattened
         into the shipped frames. *)
      ()
  | _ ->
      if m.mar_draining then ()
      else begin
        let spec = ma_spec_of obj in
        let tbl = Vft.multiactive (obj_class obj) in
        let rec loop () =
          if m.mar_queued > 0 && m.mar_count < spec.ma_budget then begin
            (* Eligible groups, oldest queue head first: index 0 of the
               decision is the arrival-order (starvation-free) choice,
               and the explorer can pick any other eligible head. *)
            let eligible = ref [] in
            Array.iteri
              (fun g q ->
                match Queue.peek_opt q with
                | Some (seq, _) when ma_compatible spec m g ->
                    eligible := (seq, g) :: !eligible
                | _ -> ())
              m.mar_queues;
            match List.sort compare !eligible with
            | [] -> ()
            | gs ->
                let pick =
                  Machine.Engine.decide (machine rt) "ma.pump.pick"
                    (List.length gs)
                in
                let _, g = List.nth gs pick in
                let _, msg = Queue.take m.mar_queues.(g) in
                m.mar_queued <- m.mar_queued - 1;
                charge rt (cost rt).Cost_model.mq_dequeue;
                (match entry_at tbl msg.Message.pattern with
                | Ma_admit { impl; group } ->
                    ma_run_activation rt obj impl ~group msg
                | _ ->
                    (* only a class method can have been queued *)
                    assert false);
                loop ()
          end
        in
        loop ()
      end

(* Chunk-stall waiters (Section 5.2): one FIFO per target, so parking
   and resuming the earliest waiter for a replying target are O(1). *)
let resume_chunk_waiter rt ~target =
  if Array.length rt.chunk_waiters > 0 then
    match Queue.take_opt rt.chunk_waiters.(target) with
    | Some b -> resume rt b R_go
    | None -> ()

let chunk_waiter_count rt =
  let n = ref 0 in
  for target = 0 to Array.length rt.chunk_waiters - 1 do
    n := !n + Queue.length rt.chunk_waiters.(target)
  done;
  !n

(* Export tracking (Section 5.2): once an address leaves its node, the
   object can never be moved by a copying collector. *)
let mark_exports rt values reply =
  let my_id = Machine.Node.id rt.node in
  let rec mark = function
    | Value.Addr a ->
        if a.Value.node = my_id then (
          match Hashtbl.find_opt rt.objects a.Value.slot with
          | Some o -> o.exported <- true
          | None -> ())
    | Value.List vs | Value.Tuple vs -> List.iter mark vs
    | Value.Unit | Value.Bool _ | Value.Int _ | Value.Float _ | Value.Str _ ->
        ()
  in
  List.iter mark values;
  Option.iter (fun a -> mark (Value.Addr a)) reply

let maybe_preempt rt =
  let config = rt.shared.config in
  if
    rt.work_since_yield >= config.quantum_instr
    && rt.depth >= 1
    && rt.leaf_depth = 0
  then
    match block rt Preempted with
    | R_go -> ()
    | R_reply _ | R_msg _ -> assert false

let send rt ~target ~pattern ~args ?reply () =
  let c = cost rt in
  charge_work rt c.Cost_model.check_locality;
  maybe_preempt rt;
  let my_id = Machine.Node.id rt.node in
  let msg = Message.make ~pattern ~args ?reply ~src_node:my_id () in
  if target.Value.node = my_id then begin
    let obj = lookup_or_embryo rt target.Value.slot in
    match rt.shared.migration with
    | None -> local_deliver rt obj msg
    | Some m -> (
        match obj.vftp.vft_kind with
        | Vft_forward _ -> m.mig_forward rt obj msg
        | _ ->
            (* The FIFO reorder gate may need to hold this message until
               earlier-sequenced in-flight messages land; [false] means
               the ungated fast path is safe. *)
            if not (m.mig_gate_local rt obj msg) then local_deliver rt obj msg)
  end
  else
    match rt.shared.migration with
    | Some m ->
        mark_exports rt args reply;
        m.mig_send rt target msg
    | None ->
        charge rt c.Cost_model.msg_setup_send;
        bump (ctrs rt).c_send_remote;
        mark_exports rt args reply;
        (match rt.shared.gc with
        | Some g -> msg.Message.gc_refs <- g.gc_grant rt args reply
        | None -> ());
        let msg =
          (* Optionally prove the message serialisable by shipping its
             codec round trip instead of the original. Encodes into the
             node's reused scratch buffer (cleared, pre-sized by
             [encoded_message_size]) rather than allocating per send. *)
          if rt.shared.config.codec_check then begin
            Buffer.clear rt.Kernel.scratch;
            Codec.encode_message_into rt.Kernel.scratch msg;
            Codec.decode_message (Buffer.to_bytes rt.Kernel.scratch)
          end
          else msg
        in
        Machine.Engine.send_am (machine rt) ~src:rt.node ~dst:target.Value.node
          ~handler:rt.shared.h_obj_msg
          ~size_bytes:(Protocol.obj_msg_bytes msg)
          (Protocol.P_obj_msg { slot = target.Value.slot; msg })

let send_inlined rt cls ~target ~pattern ~args () =
  let c = cost rt in
  let my_id = Machine.Node.id rt.node in
  if
    target.Value.node = my_id
    && rt.shared.config.sched_kind = Hybrid
    (* With migration attached the receiver may be a forwarding stub or
       gated; the generic path knows how to handle both. *)
    && Option.is_none rt.shared.migration
  then begin
    (* Inlined fast path (Section 8.2): locality check + VFTP comparison
       against the statically known dormant table. *)
    charge_work rt (c.Cost_model.check_locality + 2);
    let obj = lookup_or_embryo rt target.Value.slot in
    let dormant = Vft.dormant cls in
    if obj.vftp == dormant && rt.depth < rt.shared.config.max_stack_depth then begin
      let msg = Message.make ~pattern ~args ~src_node:my_id () in
      match entry_at dormant pattern with
      | Invoke impl ->
          bump (ctrs rt).sent_local.o_inlined;
          run_invoke rt obj impl msg ~init_first:false
      | Invoke_init impl ->
          bump (ctrs rt).sent_local.o_inlined;
          run_invoke rt obj impl msg ~init_first:true
      | Ma_admit _ | Enqueue | Restore | Forward | No_method ->
          raise (Not_understood { cls_name = cls.cls_name; pattern })
    end
    else
      (* Mode or depth check failed: take the generic path (without
         re-charging the locality check). *)
      local_deliver rt obj (Message.make ~pattern ~args ~src_node:my_id ())
  end
  else send rt ~target ~pattern ~args ()

let leave_optimized rt ~leaf =
  rt.depth <- rt.depth - 1;
  if leaf then begin
    rt.leaf_depth <- rt.leaf_depth - 1;
    if rt.leaf_depth = 0 then Machine.Node.set_interrupts_masked rt.node false
  end

let send_optimized rt cls ~target ~pattern ~args ~known_local ~leaf ~stateless
    ~no_poll () =
  let c = cost rt in
  let my_id = Machine.Node.id rt.node in
  let fallback () = send rt ~target ~pattern ~args () in
  if target.Value.node <> my_id then begin
    if known_local then
      invalid_arg "Sched.send_optimized: known_local receiver is remote";
    fallback ()
  end
  else if rt.shared.config.sched_kind <> Hybrid then fallback ()
  else if Option.is_some rt.shared.migration then fallback ()
  else begin
    if not known_local then charge_work rt c.Cost_model.check_locality;
    let obj = lookup_or_embryo rt target.Value.slot in
    let dormant = if obj.initialized then Vft.dormant cls else Vft.init cls in
    if obj.vftp != dormant || rt.depth >= rt.shared.config.max_stack_depth then
      (* Mode test failed: the message takes the generic path. *)
      local_deliver rt obj (Message.make ~pattern ~args ~src_node:my_id ())
    else begin
      charge rt c.Cost_model.vft_lookup_call;
      let impl =
        match entry_at dormant pattern with
        | Invoke impl | Invoke_init impl -> impl
        | Ma_admit _ | Enqueue | Restore | Forward | No_method ->
            raise (Not_understood { cls_name = cls.cls_name; pattern })
      in
      bump (ctrs rt).sent_local.o_inlined;
      let msg = Message.make ~pattern ~args ~src_node:my_id () in
      rt.depth <- rt.depth + 1;
      if leaf then begin
        rt.leaf_depth <- rt.leaf_depth + 1;
        (* An interrupt-dispatched method would inherit the no-blocking
           restriction; hold deliveries until the leaf body is done. *)
        Machine.Node.set_interrupts_masked rt.node true
      end;
      match
        if not leaf then begin
          (* Without the leaf guarantee the VFTP must still be switched
             around the body, as in the generic path. *)
          charge rt (2 * c.Cost_model.switch_vft);
          obj.vftp <- rt.shared.enqueue_all;
          if not obj.initialized then do_init rt obj;
          impl { rt; self_obj = obj } msg;
          obj.vftp <- dormant
        end
        else begin
          if not obj.initialized then do_init rt obj;
          impl { rt; self_obj = obj } msg
        end;
        if not stateless then begin
          charge rt c.Cost_model.check_message_queue;
          if not (Queue.is_empty obj.mq) then schedule_pending rt obj
        end;
        if not no_poll then begin
          charge rt c.Cost_model.poll_remote;
          Machine.Engine.poll (machine rt) rt.node
        end;
        charge rt c.Cost_model.stack_adjust_return
      with
      | () -> leave_optimized rt ~leaf
      | exception e -> reraise_after (fun leaf -> leave_optimized rt ~leaf) leaf e
    end
  end

(* Selective message reception (Sections 2.2 and 4.3). *)
let wait_for rt obj patterns =
  (* A multiactive class cannot use selective reception: the waiting
     table would displace the admission table and silently re-serialize
     the object (and the parked-context bookkeeping assumes exactly one
     activation). Rejected loudly instead. *)
  (match (obj_class obj).cls_ma with
  | Some _ ->
      invalid_arg
        (Printf.sprintf
           "Sched.wait_for: multiactive class %s cannot use selective \
            reception"
           (obj_class obj).cls_name)
  | None -> ());
  let c = cost rt in
  charge rt c.Cost_model.check_message_queue;
  let matching m = List.mem m.Message.pattern patterns in
  (* Scan the message queue for the first awaited message. *)
  let found = ref None in
  let rest = Queue.create () in
  Queue.iter
    (fun m ->
      if Option.is_none !found && matching m then found := Some m
      else Queue.push m rest)
    obj.mq;
  match !found with
  | Some m ->
      Queue.clear obj.mq;
      Queue.transfer rest obj.mq;
      charge rt c.Cost_model.mq_dequeue;
      bump (ctrs rt).c_wait_immediate;
      m
  | None -> (
      match block rt (Wait_patterns patterns) with
      | R_msg m -> m
      | R_go | R_reply _ -> assert false)
