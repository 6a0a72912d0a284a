open Kernel
module Cost_model = Machine.Cost_model
module Engine = Machine.Engine
module Am = Machine.Am

type Machine.Node.local += Rt of node_rt

let rt_of node =
  match Machine.Node.local node with
  | Rt rt -> rt
  | _ -> invalid_arg "System: node has no runtime attached"

type t = { shared : shared; rts : node_rt array }

let default_rt_config =
  {
    sched_kind = Hybrid;
    max_stack_depth = 2000;
    quantum_instr = 50_000;
    stock_size = 2;
    placement = Round_robin;
    discard_unacceptable = false;
    codec_check = false;
    gossip_interval_ns = 0;
    ma_cores = 4;
  }

let naive_rt_config = { default_rt_config with sched_kind = Naive }

(* --- Active message handlers (Section 5.1) --- *)

let obj_msg_handler _machine node am =
  match am.Am.payload with
  | Protocol.P_obj_msg { slot; msg } ->
      let rt = rt_of node in
      (* Custody transfer: credit the reference manifest exactly once,
         then strip it — a buffered message carries no weight. *)
      (match rt.shared.gc with
      | Some g when msg.Message.gc_refs <> [] ->
          g.gc_accept rt msg.Message.gc_refs;
          msg.Message.gc_refs <- []
      | _ -> ());
      Sched.local_deliver ~origin:`Remote rt (Sched.lookup_or_embryo rt slot) msg
  | _ -> assert false

let create_handler _machine node am =
  match am.Am.payload with
  | Protocol.P_create { slot; cls_id; args; gc_refs } ->
      let rt = rt_of node in
      let c = cost rt in
      charge rt c.Cost_model.create_init_handler;
      (match rt.shared.gc with
      | Some g when gc_refs <> [] -> g.gc_accept rt gc_refs
      | _ -> ());
      (* The creator's conjured claim: mint the owner-side weight now,
         while the FIFO channel still guarantees no decrement for this
         incarnation has been processed. *)
      (match rt.shared.gc with
      | Some g -> g.gc_conjured rt slot
      | None -> ());
      let obj = Sched.lookup_or_embryo rt slot in
      (match obj.cls with
      | Some _ -> invalid_arg "System: duplicate creation request"
      | None -> ());
      let cls =
        match Hashtbl.find_opt rt.shared.classes cls_id with
        | Some cls -> cls
        | None -> invalid_arg "System: remote creation of unregistered class"
      in
      obj.cls <- Some cls;
      obj.pending_ctor_args <- args;
      charge rt c.Cost_model.switch_vft;
      obj.vftp <- Vft.init cls;
      bump (ctrs rt).c_create_remote_applied;
      (* Messages that raced ahead of the creation request were buffered
         by the fault table; process the first one (Section 5.2). *)
      if not (Queue.is_empty obj.mq) then Sched.schedule_pending rt obj;
      (* Allocate the replacement chunk and replenish the requester. *)
      charge rt c.Cost_model.chunk_refill;
      let replacement = Sched.alloc_slot rt in
      charge rt c.Cost_model.msg_setup_send;
      Engine.send_am (machine rt) ~src:node ~dst:am.Am.src
        ~handler:rt.shared.h_chunk ~size_bytes:Protocol.chunk_bytes
        (Protocol.P_chunk { slot = replacement })
  | _ -> assert false

let chunk_handler _machine node am =
  match am.Am.payload with
  | Protocol.P_chunk { slot } ->
      let rt = rt_of node in
      Queue.push slot rt.stocks.(am.Am.src);
      bump (ctrs rt).c_chunk_refill;
      Sched.resume_chunk_waiter rt ~target:am.Am.src
  | _ -> assert false

(* --- Boot --- *)

let boot ?(machine_config = Engine.default_config)
    ?(rt_config = default_rt_config) ~nodes ~classes () =
  if rt_config.stock_size < 1 then
    invalid_arg
      "System.boot: stock_size must be >= 1 (remote creation would deadlock)";
  if rt_config.max_stack_depth < 1 then
    invalid_arg "System.boot: max_stack_depth must be >= 1";
  if rt_config.quantum_instr < 1 then
    invalid_arg "System.boot: quantum_instr must be >= 1";
  let machine = Engine.create ~config:machine_config ~nodes () in
  let h_obj_msg =
    Engine.register_handler machine Am.Object_message ~name:"object-message"
      obj_msg_handler
  in
  let h_create =
    Engine.register_handler machine Am.Create_request ~name:"create-request"
      create_handler
  in
  let h_chunk =
    Engine.register_handler machine Am.Chunk_reply ~name:"chunk-reply"
      chunk_handler
  in
  let reply_cls = Reply.make_cls () in
  let class_tbl = Hashtbl.create 16 in
  List.iter (fun c -> Hashtbl.replace class_tbl c.cls_id c) classes;
  Hashtbl.replace class_tbl reply_cls.cls_id reply_cls;
  let shared =
    {
      machine;
      classes = class_tbl;
      enqueue_all = Vft.make_enqueue_all ();
      fault_tbl = Vft.make_fault ();
      h_obj_msg;
      h_create;
      h_chunk;
      config = rt_config;
      reply_cls;
      ctrs = make_counters (Engine.stats machine);
      migration = None;
      gc = None;
    }
  in
  let p = Engine.node_count machine in
  let stock = rt_config.stock_size in
  let make_rt i =
    let node = Engine.node machine i in
    let rt =
      {
        shared;
        node;
        objects = Hashtbl.create 256;
        (* Slots [0, p * stock) are pre-reserved for the stocks of every
           requester; dynamic allocation starts above the watermark. *)
        next_slot = p * stock;
        free_slots = Queue.create ();
        slots_recycled = 0;
        stocks = Array.init p (fun _ -> Queue.create ());
        stock_low_water = stock;
        chunk_waiters = [||];
        preempt_pending = 0;
        rr_cursor = i + 1;
        depth = 0;
        leaf_depth = 0;
        work_since_yield = 0;
        scratch = Buffer.create 256;
        rng =
          Simcore.Rng.create
            ~seed:(((Engine.config machine).Engine.seed * 1_000_003) + i);
        ma_scale = 1;
        fiber_handler = None;
        act_objs = [||];
        act_groups = [||];
        act_len = 0;
      }
    in
    Machine.Node.set_local node (Rt rt);
    rt
  in
  let rts = Array.init p make_rt in
  (* Pre-deliver the chunk stocks: requester [n]'s stock for target [m]
     holds slots [n * stock .. n * stock + stock) of [m]'s slot space. *)
  Array.iteri
    (fun n rt ->
      for m = 0 to p - 1 do
        if m <> n then
          for i = 0 to stock - 1 do
            Queue.push ((n * stock) + i) rt.stocks.(m)
          done
      done)
    rts;
  { shared; rts }

let machine t = t.shared.machine
let node_count t = Engine.node_count t.shared.machine

let rt t i =
  if i < 0 || i >= node_count t then invalid_arg "System.rt: bad node id";
  t.rts.(i)

let stats t = Engine.stats t.shared.machine
let config t = t.shared.config

let create_root t ~node cls args =
  if not (Hashtbl.mem t.shared.classes cls.cls_id) then
    Hashtbl.replace t.shared.classes cls.cls_id cls;
  let addr = Create.local (rt t node) cls args in
  (* The embedding holds this address outside the heap (driver code,
     boot messages); it must never be swept. *)
  (match Hashtbl.find_opt (rt t node).objects addr.Value.slot with
  | Some obj -> obj.gc_pinned <- true
  | None -> ());
  addr

let send_boot t ?from target pattern args =
  let from = Option.value from ~default:target.Value.node in
  let rt = rt t from in
  Engine.post t.shared.machine rt.node (fun () ->
      Sched.send rt ~target ~pattern ~args ())

let run ?max_slices t = Engine.run ?max_slices t.shared.machine

let run_parallel ?max_slices t ~domains =
  Engine.run_parallel ?max_slices t.shared.machine ~domains ()
let elapsed t = Engine.elapsed t.shared.machine
let utilization t = Engine.utilization t.shared.machine

let total_heap_words t =
  Array.fold_left
    (fun acc rt -> acc + Machine.Node.heap_words rt.node)
    0 t.rts

let lookup_obj t addr =
  if addr.Value.node < 0 || addr.Value.node >= node_count t then None
  else Hashtbl.find_opt (rt t addr.Value.node).objects addr.Value.slot

let pp_summary ppf t =
  Format.fprintf ppf
    "@[<v>nodes: %d@,elapsed: %a@,utilization: %.1f%%@,heap words: %d@,%a@]"
    (node_count t) Simcore.Time.pp (elapsed t)
    (100. *. utilization t)
    (total_heap_words t) Simcore.Stats.pp (stats t)
