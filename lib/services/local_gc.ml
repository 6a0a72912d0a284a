module Value = Core.Value
module Kernel = Core.Kernel
module Message = Core.Message

type result = {
  examined : int;
  moved : int;
  pinned : int;
  references_patched : int;
}

let zero = { examined = 0; moved = 0; pinned = 0; references_patched = 0 }

let add a b =
  {
    examined = a.examined + b.examined;
    moved = a.moved + b.moved;
    pinned = a.pinned + b.pinned;
    references_patched = a.references_patched + b.references_patched;
  }

(* Rewrite every local address in [v] through [remap]. *)
let rec patch_value remap patched (v : Value.t) : Value.t =
  match v with
  | Value.Addr a -> (
      match Hashtbl.find_opt remap (a.Value.node, a.Value.slot) with
      | Some slot' ->
          incr patched;
          Value.Addr { a with Value.slot = slot' }
      | None -> v)
  | Value.List vs -> Value.List (List.map (patch_value remap patched) vs)
  | Value.Tuple vs -> Value.Tuple (List.map (patch_value remap patched) vs)
  | Value.Unit | Value.Bool _ | Value.Int _ | Value.Float _ | Value.Str _ -> v

let patch_message remap patched (m : Message.t) =
  {
    m with
    Message.args = List.map (patch_value remap patched) m.Message.args;
    reply =
      Option.map
        (fun (a : Value.addr) ->
          match Hashtbl.find_opt remap (a.Value.node, a.Value.slot) with
          | Some slot' ->
              incr patched;
              { a with Value.slot = slot' }
          | None -> a)
        m.Message.reply;
  }

let movable ~node (obj : Kernel.obj) =
  (not obj.exported)
  && Option.is_some obj.cls
  && Option.is_none obj.blocked
  && (not obj.in_sched_q)
  (* Migration artefacts are pinned: a forwarding stub must keep its
     canonical slot (remote senders resolve it), and an immigrant's
     [self] names its birth node, so the (node, slot) remap below would
     not describe it. *)
  && obj.self.Value.node = node
  && match obj.vftp.Kernel.vft_kind with
     | Kernel.Vft_forward _ -> false
     | _ -> true

let compact sys ~node =
  let rt = Core.System.rt sys node in
  let machine = Core.System.machine sys in
  let node_handle = Machine.Engine.node machine node in
  (* Phase 1: relocate movable objects to fresh slots. *)
  let remap = Hashtbl.create 64 in
  let examined = ref 0 and moved = ref 0 and pinned = ref 0 in
  let victims =
    Hashtbl.fold
      (fun slot obj acc ->
        incr examined;
        if movable ~node obj then (slot, obj) :: acc
        else begin
          incr pinned;
          acc
        end)
      rt.Kernel.objects []
  in
  List.iter
    (fun (slot, (obj : Kernel.obj)) ->
      let slot' = Core.Sched.alloc_slot rt in
      Hashtbl.remove rt.Kernel.objects slot;
      Hashtbl.replace rt.Kernel.objects slot' obj;
      Hashtbl.replace remap (node, slot) slot';
      (* The object's own idea of its address moves with it. *)
      (* copy cost: proportional to its state box *)
      Machine.Engine.charge machine node_handle
        (8 + (2 * Array.length obj.state));
      incr moved)
    victims;
  List.iter
    (fun (_, (obj : Kernel.obj)) ->
      match Hashtbl.find_opt remap (node, obj.self.Value.slot) with
      | Some slot' ->
          obj.self <- { obj.self with Value.slot = slot' };
          obj.phys_slot <- slot'
      | None -> ())
    victims;
  (* Phase 2: patch every local reference — state boxes, buffered
     messages, pending constructor arguments. *)
  let patched = ref 0 in
  Hashtbl.iter
    (fun _slot (obj : Kernel.obj) ->
      Array.iteri
        (fun i v -> obj.state.(i) <- patch_value remap patched v)
        obj.state;
      obj.pending_ctor_args <-
        List.map (patch_value remap patched) obj.pending_ctor_args;
      let buffered = Queue.length obj.mq in
      for _ = 1 to buffered do
        let m = Queue.pop obj.mq in
        Queue.push (patch_message remap patched m) obj.mq
      done)
    rt.Kernel.objects;
  {
    examined = !examined;
    moved = !moved;
    pinned = !pinned;
    references_patched = !patched;
  }

(* --- Sweep: freeing unreferenced local-only objects --- *)

type skip_reason =
  | In_dispatch
  | Preempt_pending of int
  | Blocked_contexts of int
  | Chunk_waiters of int

type sweep_report = {
  swept_examined : int;
  freed : int;
  retained : int;
  marked : (int, unit) Hashtbl.t;
}

type sweep_outcome = Swept of sweep_report | Skipped of skip_reason

type sweep_hooks = {
  remote_live : Kernel.obj -> bool;
  on_remote_ref : Value.addr -> unit;
  on_local_ref : Value.addr -> unit;
  extra_roots : unit -> Value.t list;
  on_free : Kernel.obj -> unit;
  recycle : bool;
}

let default_hooks =
  {
    remote_live = (fun o -> o.Kernel.exported);
    on_remote_ref = ignore;
    on_local_ref = ignore;
    extra_roots = (fun () -> []);
    on_free = ignore;
    recycle = true;
  }

let sweep ?(hooks = default_hooks) sys ~node =
  let rt = Core.System.rt sys node in
  (* Safety gate. A suspended context is an effect continuation: the
     OCaml frames it closes over can hold addresses no heap trace sees,
     so sweeping under one (or mid-dispatch, or with a preempted method
     waiting to resume) could free a live object. Objects merely sitting
     in the scheduling queue are safe — they are roots below. *)
  let blocked_ctxs =
    Hashtbl.fold
      (fun _ (o : Kernel.obj) n -> if Option.is_some o.blocked then n + 1 else n)
      rt.Kernel.objects 0
  in
  let waiters = Core.Sched.chunk_waiter_count rt in
  if rt.Kernel.depth > 0 then Skipped In_dispatch
  else if rt.Kernel.preempt_pending > 0 then
    Skipped (Preempt_pending rt.Kernel.preempt_pending)
  else if blocked_ctxs > 0 then Skipped (Blocked_contexts blocked_ctxs)
  else if waiters > 0 then Skipped (Chunk_waiters waiters)
  else begin
    let machine = Core.System.machine sys in
    let node_handle = Machine.Engine.node machine node in
    let cost = Machine.Engine.cost machine in
    (* Mark phase. Roots: pinned objects, embryos (a reserved chunk the
       requester will initialise), queued or scheduled objects, anything
       remote-referenced (per the attached policy; plain [exported] when
       no distributed GC refines it), immigrants (their liveness is
       governed by their home node's counts), forwarding stubs. *)
    let marked : (int, unit) Hashtbl.t = Hashtbl.create 64 in
    let work = Queue.create () in
    let mark_obj key obj =
      if not (Hashtbl.mem marked key) then begin
        Hashtbl.replace marked key ();
        Queue.push obj work
      end
    in
    let rec trace_value (v : Value.t) =
      match v with
      | Value.Addr a ->
          if a.Value.node = node then begin
            hooks.on_local_ref a;
            match Hashtbl.find_opt rt.Kernel.objects a.Value.slot with
            | Some o -> mark_obj a.Value.slot o
            | None -> ()
          end
          else hooks.on_remote_ref a
      | Value.List vs | Value.Tuple vs -> List.iter trace_value vs
      | Value.Unit | Value.Bool _ | Value.Int _ | Value.Float _ | Value.Str _
        -> ()
    in
    let trace_msg (m : Message.t) =
      List.iter trace_value m.Message.args;
      Option.iter (fun a -> trace_value (Value.Addr a)) m.Message.reply;
      List.iter
        (fun (r : Message.gc_ref) -> trace_value (Value.Addr r.Message.gr_addr))
        m.Message.gc_refs
    in
    let is_root (obj : Kernel.obj) =
      obj.Kernel.gc_pinned
      || Option.is_none obj.cls
      || obj.in_sched_q
      || (not (Queue.is_empty obj.mq))
      || Option.is_some obj.blocked
      || hooks.remote_live obj
      || obj.self.Value.node <> node
      ||
      match obj.vftp.Kernel.vft_kind with
      | Kernel.Vft_forward _ -> true
      | _ -> false
    in
    let examined = ref 0 in
    Hashtbl.iter
      (fun key obj ->
        incr examined;
        Machine.Engine.charge machine node_handle
          cost.Machine.Cost_model.gc_sweep_obj;
        if is_root obj then mark_obj key obj)
      rt.Kernel.objects;
    List.iter trace_value (hooks.extra_roots ());
    while not (Queue.is_empty work) do
      let obj = Queue.pop work in
      Array.iter trace_value obj.Kernel.state;
      List.iter trace_value obj.Kernel.pending_ctor_args;
      Queue.iter trace_msg obj.Kernel.mq
    done;
    (* Sweep phase: [on_free] runs while the record is still registered,
       so the policy hook can inspect (and unregister) related state. *)
    let victims =
      Hashtbl.fold
        (fun key obj acc ->
          if Hashtbl.mem marked key then acc else (key, obj) :: acc)
        rt.Kernel.objects []
    in
    List.iter
      (fun (key, (obj : Kernel.obj)) ->
        Machine.Engine.charge machine node_handle
          cost.Machine.Cost_model.gc_reclaim;
        let words =
          match obj.cls with
          | Some c when c.Kernel.cls_id = rt.Kernel.shared.Kernel.reply_cls.Kernel.cls_id
            -> 6
          | _ -> 8 + Array.length obj.state
        in
        Machine.Node.heap_free_words node_handle words;
        hooks.on_free obj;
        Hashtbl.remove rt.Kernel.objects key;
        if hooks.recycle then Core.Sched.recycle_slot rt key)
      victims;
    let freed = List.length victims in
    Swept { swept_examined = !examined; freed; retained = !examined - freed; marked }
  end

let compact_all sys =
  let n = Core.System.node_count sys in
  let rec loop node acc =
    if node = n then acc else loop (node + 1) (add acc (compact sys ~node))
  in
  loop 0 zero

let pp_result ppf r =
  Format.fprintf ppf "examined %d, moved %d, pinned %d, patched %d reference(s)"
    r.examined r.moved r.pinned r.references_patched
