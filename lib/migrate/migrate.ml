(** Object migration over Category-4 Service active messages.

    The paper (Section 5.2) fixes an object's mail address as an
    immutable [(node, pointer)] pair and leaves relocation as future
    work. This subsystem supplies it without ever changing a mail
    address: the pair stays the object's {e canonical} identity for its
    whole life, and migration only moves the physical record, leaving a
    {e forwarding stub} behind — a one-entry VFT whose every dispatch
    re-posts the message toward the current home (the multiple-VFT
    trick again: senders never test for "moved").

    Protocol (three phases, all on Service AMs, riding the reliable
    layer when a fault plan is live):

    + {b freeze} — at a safe point (no live context: dormant/init, or
      active-with-queued-frames-only) the source serialises the state
      box, pending constructor arguments and buffered frames through
      {!Core.Codec}, swaps the record's VFT for a forwarding stub, and
      ships an [M_install].
    + {b install} — the target materialises the record under a locally
      allocated slot (or revives its old stub when the object returns),
      re-schedules carried frames, and answers every {e previous} host
      with an [M_update], so each old stub is retargeted to the final
      home — steady-state forwarding chains have length <= 1.
    + {b forward/teach} — a message reaching a stub is re-posted one
      hop and the {e original sender} is taught the new address with a
      piggybacked [M_update]; its per-node location cache then sends
      the next message directly (path compression).

    End-to-end FIFO per sender-receiver pair survives arbitrary
    migration interleavings by per-[(sender node, canonical address)]
    sequence stamping with a receiver-side reorder gate that travels
    with the object. Exactly-once follows from the per-hop reliable
    layer plus single-forwarding per stub visit. *)

module Policy = Policy
module Engine = Machine.Engine
module Kernel = Core.Kernel
module Value = Core.Value
module Sched = Core.Sched
module Vft = Core.Vft
module Codec = Core.Codec
module Message = Core.Message
module Cost_model = Machine.Cost_model

type Machine.Am.payload +=
  | M_msg of {
      canon : Value.addr;
      sender : int;  (** originating node (not the forwarding hop) *)
      seq : int;  (** per (sender, canon) sequence number *)
      hop : int;
      bytes : Bytes.t;  (** codec-encoded message *)
    }
  | M_install of {
      canon : Value.addr;
      cls_id : int;
      epoch : int;  (** migration count of this object, orders updates *)
      initialized : bool;
      state : Bytes.t;  (** codec-encoded state box (tuple) *)
      ctor : Bytes.t;  (** codec-encoded pending constructor args *)
      frames : Bytes.t list;  (** codec-encoded buffered frames, in order *)
      expected : (int * int) list;  (** reorder-gate positions per sender *)
      history : int list;  (** all previous hosts still holding stubs *)
      gc_refs : Message.gc_ref list;
          (** reference manifest for addresses in the state box and
              constructor arguments (empty without a distributed GC) *)
    }
  | M_update of { canon : Value.addr; phys : Value.addr; epoch : int }

type gate = {
  g_expected : (int, int) Hashtbl.t;  (** sender node -> next expected seq *)
  g_held : (int * int, Message.t) Hashtbl.t;  (** (sender, seq) -> held msg *)
}

type resident = {
  mutable r_epoch : int;
  mutable r_history : int list;  (** previous hosts, oldest first *)
  r_recv : (int, int) Hashtbl.t;  (** sender node -> sequenced receipts *)
  r_seen : (int, int) Hashtbl.t;
      (** receipts already consumed by earlier policy ticks — affinity
          judges each tick on the traffic since the previous one, so a
          correspondent that has since moved (or been co-located) stops
          reading as a remote attractor *)
}

type nstate = {
  ns_homes : (int * int, Kernel.obj) Hashtbl.t;
      (** canonical key -> local record of an immigrant (live or its
          left-behind stub); natives resolve through the object table *)
  ns_res : (int * int, resident) Hashtbl.t;  (** live objects hosted here *)
  ns_gates : (int * int, gate) Hashtbl.t;
  ns_limbo : (int * int, (int * int * int * Message.t) list ref) Hashtbl.t;
      (** messages that beat the install to a new home:
          (sender, seq, hop, msg), drained at install *)
  ns_seq_out : (int * int, int ref) Hashtbl.t;  (** canon -> next seq out *)
  ns_cache : (int * int, Value.addr * int) Hashtbl.t;
      (** location cache: canon -> best-known physical home + epoch *)
}

type t = {
  sys : Core.System.t;
  machine : Engine.t;
  h_msg : int;
  h_install : int;
  h_update : int;
  states : nstate array;
  policy : Policy.t option;
  interval_ns : int;
  load : Services.Load.t option;
  c_out : Simcore.Stats.cell;
  c_in : Simcore.Stats.cell;
  c_fwd : Simcore.Stats.cell;
  c_fwd_node : Simcore.Stats.cell array;
  c_update : Simcore.Stats.cell;
  c_held : Simcore.Stats.cell;
  c_limbo : Simcore.Stats.cell;
  c_dup : Simcore.Stats.cell;
  c_colocated : Simcore.Stats.cell;
}

let key (a : Value.addr) = (a.Value.node, a.Value.slot)

let rt_of t node = Core.System.rt t.sys (Machine.Node.id node)
let nstate_of t my_id = t.states.(my_id)

(* --- safe points ------------------------------------------------- *)

(* An object is movable iff no context can ever resume into its record:
   dormant/init quiescent objects trivially; an active-mode object only
   when its remaining work is entirely queued frames (in_sched_q). An
   active object NOT in the scheduling queue has a suspended context
   somewhere — selective reception, a now-type wait parked on a reply
   destination, a chunk stall, or a pending preemption resume — and
   moving the record would strand that continuation. *)
let safe_point shared (obj : Kernel.obj) =
  Option.is_some obj.Kernel.cls
  && (not (Kernel.is_reply_dest shared obj))
  && Option.is_none obj.Kernel.blocked
  &&
  match obj.Kernel.vftp.Kernel.vft_kind with
  | Kernel.Vft_dormant | Kernel.Vft_init -> true
  | Kernel.Vft_active -> obj.Kernel.in_sched_q
  | Kernel.Vft_multiactive -> (
      (* Movable once the running set is empty: group-queued messages
         and scheduling-queue frames are just data and travel with the
         object, but a live activation has stack frames here. *)
      match obj.Kernel.ma with
      | None -> true
      | Some m -> m.Kernel.mar_count = 0)
  | Kernel.Vft_waiting _ | Kernel.Vft_fault | Kernel.Vft_forward _ -> false

(* --- sequencing and the reorder gate ------------------------------ *)

let next_seq t my_id canon =
  let ns = nstate_of t my_id in
  let cell =
    match Hashtbl.find_opt ns.ns_seq_out (key canon) with
    | Some r -> r
    | None ->
        let r = ref 0 in
        Hashtbl.add ns.ns_seq_out (key canon) r;
        r
  in
  let s = !cell in
  incr cell;
  s

let gate_for ns canon =
  match Hashtbl.find_opt ns.ns_gates (key canon) with
  | Some g -> g
  | None ->
      let g = { g_expected = Hashtbl.create 4; g_held = Hashtbl.create 4 } in
      Hashtbl.add ns.ns_gates (key canon) g;
      g

let expected g sender =
  Option.value (Hashtbl.find_opt g.g_expected sender) ~default:0

(* Created lazily on the first sequenced receipt, so affinity statistics
   accumulate for objects that have never migrated too. *)
let note_recv ns canon sender =
  let r =
    match Hashtbl.find_opt ns.ns_res (key canon) with
    | Some r -> r
    | None ->
        let r = { r_epoch = 0; r_history = []; r_recv = Hashtbl.create 4;
                r_seen = Hashtbl.create 4 } in
        Hashtbl.add ns.ns_res (key canon) r;
        r
  in
  Hashtbl.replace r.r_recv sender
    (1 + Option.value (Hashtbl.find_opt r.r_recv sender) ~default:0)

(* Deliver [msg] if it is the next in the sender's sequence, else hold
   it. Releasing may run whole method cascades which re-enter this gate
   (a cascade can send to the same object), so the expected counter is
   advanced *before* delivery and re-read from the table around every
   release. *)
let gate_submit t rt (obj : Kernel.obj) ~sender ~seq msg =
  let my_id = Machine.Node.id rt.Kernel.node in
  let ns = nstate_of t my_id in
  let g = gate_for ns obj.Kernel.self in
  let deliver msg =
    note_recv ns obj.Kernel.self sender;
    Sched.local_deliver ~origin:`Remote rt obj msg
  in
  let exp = expected g sender in
  if seq < exp then Simcore.Stats.bump t.c_dup
  else if seq > exp then begin
    Hashtbl.replace g.g_held (sender, seq) msg;
    Simcore.Stats.bump t.c_held
  end
  else begin
    Hashtbl.replace g.g_expected sender (exp + 1);
    deliver msg;
    let rec release () =
      let exp = expected g sender in
      match Hashtbl.find_opt g.g_held (sender, exp) with
      | Some msg ->
          Hashtbl.remove g.g_held (sender, exp);
          Hashtbl.replace g.g_expected sender (exp + 1);
          deliver msg;
          release ()
      | None -> ()
    in
    release ()
  end

(* --- transmission ------------------------------------------------- *)

let send_m_msg t rt ~dst ~canon ~sender ~seq ~hop msg =
  let bytes = Codec.encode_message msg in
  Engine.send_am t.machine ~src:rt.Kernel.node ~dst ~handler:t.h_msg
    ~size_bytes:(Bytes.length bytes + 20)
    (M_msg { canon; sender; seq; hop; bytes })

let send_update t rt ~dst ~canon ~phys ~epoch =
  Engine.send_am t.machine ~src:rt.Kernel.node ~dst ~handler:t.h_update
    ~size_bytes:24
    (M_update { canon; phys; epoch })

(* Reference-manifest custody (distributed GC). A message's [gc_refs]
   carry weight for the addresses it contains while in flight; custody
   is taken (credited and stripped) exactly once when a node accepts the
   message — on gate submission, limbo parking or install — and a fresh
   manifest is minted whenever the message leaves custody again. A stub
   forward keeps the embedded manifest untouched: the message only
   passes through. *)
let grant_out rt (msg : Message.t) =
  match rt.Kernel.shared.Kernel.gc with
  | Some g ->
      msg.Message.gc_refs <-
        g.Kernel.gc_grant rt msg.Message.args msg.Message.reply
  | None -> ()

let accept_in rt (msg : Message.t) =
  match rt.Kernel.shared.Kernel.gc with
  | Some g when msg.Message.gc_refs <> [] ->
      g.Kernel.gc_accept rt msg.Message.gc_refs;
      msg.Message.gc_refs <- []
  | _ -> ()

let cache_learn ns canon phys epoch =
  match Hashtbl.find_opt ns.ns_cache (key canon) with
  | Some (_, e) when e >= epoch -> ()
  | _ -> Hashtbl.replace ns.ns_cache (key canon) (phys, epoch)

(* A message hit a forwarding stub: re-post one hop toward the stub's
   best-known home and teach the original sender the new address, so
   its next message travels directly (path compression). *)
let forward_via_stub t rt (f : Kernel.fwd) ~sender ~seq ~hop msg =
  let my_id = Machine.Node.id rt.Kernel.node in
  if hop > 4 * Engine.node_count t.machine then
    failwith "Migrate: forwarding loop detected";
  Kernel.charge rt (Engine.cost t.machine).Cost_model.migrate_forward;
  Simcore.Stats.bump t.c_fwd;
  Simcore.Stats.bump t.c_fwd_node.(my_id);
  cache_learn (nstate_of t my_id) f.Kernel.fwd_canon f.Kernel.fwd_to
    f.Kernel.fwd_epoch;
  send_m_msg t rt ~dst:f.Kernel.fwd_to.Value.node ~canon:f.Kernel.fwd_canon
    ~sender ~seq ~hop msg;
  if sender <> my_id then
    send_update t rt ~dst:sender ~canon:f.Kernel.fwd_canon
      ~phys:f.Kernel.fwd_to ~epoch:f.Kernel.fwd_epoch

(* --- the runtime hooks (Kernel.migration) ------------------------- *)

(* Remote send takeover: resolve the canonical address through the
   location cache (or detect that the object actually lives here),
   stamp the per-(node, object) sequence number, transmit. *)
let mig_send t rt (canon : Value.addr) msg =
  let my_id = Machine.Node.id rt.Kernel.node in
  let ns = nstate_of t my_id in
  let c = Engine.cost t.machine in
  let seq = next_seq t my_id canon in
  match Hashtbl.find_opt ns.ns_homes (key canon) with
  | Some obj -> (
      match Vft.forward_info obj.Kernel.vftp with
      | Some f ->
          Kernel.charge rt c.Cost_model.msg_setup_send;
          grant_out rt msg;
          forward_via_stub t rt f ~sender:my_id ~seq ~hop:1 msg
      | None ->
          (* Physically co-located despite the remote mail address: the
             whole point of affinity migration — no fabric traversal, so
             no NIC setup either; only the residency lookup is paid. *)
          Kernel.charge rt c.Cost_model.check_locality;
          Simcore.Stats.bump t.c_colocated;
          gate_submit t rt obj ~sender:my_id ~seq msg)
  | None ->
      Kernel.charge rt c.Cost_model.msg_setup_send;
      Kernel.bump (Kernel.ctrs rt).Kernel.c_send_remote;
      let dst =
        match Hashtbl.find_opt ns.ns_cache (key canon) with
        | Some (phys, _) when phys.Value.node <> my_id -> phys.Value.node
        | _ -> canon.Value.node
      in
      grant_out rt msg;
      send_m_msg t rt ~dst ~canon ~sender:my_id ~seq ~hop:0 msg

(* Local dispatch reached a stub (the object's canonical node after it
   emigrated): stamp and forward. *)
let mig_forward t rt (obj : Kernel.obj) msg =
  let my_id = Machine.Node.id rt.Kernel.node in
  match Vft.forward_info obj.Kernel.vftp with
  | Some f ->
      let seq = next_seq t my_id f.Kernel.fwd_canon in
      grant_out rt msg;
      forward_via_stub t rt f ~sender:my_id ~seq ~hop:1 msg
  | None -> assert false

(* Local delivery to a physically present object. Once this node has
   ever stamped messages for the object (it was remote at some point),
   local sends must keep using the same sequence space or they could
   overtake still-in-flight stamped messages; otherwise the ungated
   fast path is untouched. *)
let mig_gate_local t rt (obj : Kernel.obj) msg =
  let my_id = Machine.Node.id rt.Kernel.node in
  let ns = nstate_of t my_id in
  match Hashtbl.find_opt ns.ns_seq_out (key obj.Kernel.self) with
  | None -> false
  | Some cell ->
      let seq = !cell in
      incr cell;
      gate_submit t rt obj ~sender:my_id ~seq msg;
      true

let mig_retire t rt (obj : Kernel.obj) =
  let my_id = Machine.Node.id rt.Kernel.node in
  let ns = nstate_of t my_id in
  Hashtbl.remove ns.ns_res (key obj.Kernel.self);
  Hashtbl.remove ns.ns_gates (key obj.Kernel.self)

(* --- freeze (phase 1) --------------------------------------------- *)

let resident_meta ns canon =
  match Hashtbl.find_opt ns.ns_res (key canon) with
  | Some r -> r
  | None ->
      let r = { r_epoch = 0; r_history = []; r_recv = Hashtbl.create 4;
                r_seen = Hashtbl.create 4 } in
      Hashtbl.add ns.ns_res (key canon) r;
      r

let rec do_move t rt (obj : Kernel.obj) ~to_ =
  let my_id = Machine.Node.id rt.Kernel.node in
  let p = Engine.node_count t.machine in
  if to_ < 0 || to_ >= p || to_ = my_id then false
  else if not (safe_point rt.Kernel.shared obj) then begin
    (* A multiactive object busy only because activations are running
       starts draining: admission stops, and the freeze retries the
       instant the running set empties. Any other unsafe reason stays a
       plain refusal. *)
    (match (obj.Kernel.vftp.Kernel.vft_kind, obj.Kernel.ma) with
    | Kernel.Vft_multiactive, Some m
      when m.Kernel.mar_count > 0 && not m.Kernel.mar_draining ->
        m.Kernel.mar_draining <- true;
        m.Kernel.mar_on_drained <-
          Some
            (fun () ->
              m.Kernel.mar_draining <- false;
              let moved = do_move t rt obj ~to_ in
              (* If the retry was refused (e.g. the target vanished from
                 the valid range) the object stays home and parked
                 messages must flow again. *)
              if (not moved) && m.Kernel.mar_queued > 0 then
                Sched.schedule_ma_pump rt obj)
    | _ -> ());
    false
  end
  else begin
    let ns = nstate_of t my_id in
    let canon = obj.Kernel.self in
    let c = Engine.cost t.machine in
    let res = resident_meta ns canon in
    let epoch = res.r_epoch + 1 in
    let history =
      List.filter
        (fun n -> n <> to_)
        (List.sort_uniq compare (my_id :: res.r_history))
    in
    (* Serialise through the codec: proves the state is genuinely
       shippable and gives the install message its wire size. *)
    let state = Codec.value_to_bytes (Value.Tuple (Array.to_list obj.Kernel.state)) in
    let ctor = Codec.value_to_bytes (Value.Tuple obj.Kernel.pending_ctor_args) in
    (* Every address leaving in the state box, constructor arguments or
       buffered frames gets a fresh manifest: the records travel with
       their own weight, so a crash of this stub cannot strand counts. *)
    let gc_refs =
      match rt.Kernel.shared.Kernel.gc with
      | Some g ->
          g.Kernel.gc_grant rt
            (Array.to_list obj.Kernel.state @ obj.Kernel.pending_ctor_args)
            None
      | None -> []
    in
    (* A quiescent multiactive object may still hold admission-parked
       messages on its group queues; flatten them behind the buffered
       frames in arrival order (the stamps restore the cross-group
       interleaving) so they travel with the object and re-enter
       admission at the new home. *)
    (match obj.Kernel.ma with
    | Some m when m.Kernel.mar_queued > 0 ->
        let parked = ref [] in
        Array.iter
          (fun q ->
            Queue.iter (fun sm -> parked := sm :: !parked) q;
            Queue.clear q)
          m.Kernel.mar_queues;
        List.iter
          (fun (_, msg) -> Queue.push msg obj.Kernel.mq)
          (List.sort compare !parked);
        m.Kernel.mar_queued <- 0
    | _ -> ());
    let frames =
      Queue.fold
        (fun acc m ->
          grant_out rt m;
          Codec.encode_message m :: acc)
        [] obj.Kernel.mq
      |> List.rev
    in
    let words = Array.length obj.Kernel.state + Queue.length obj.Kernel.mq in
    Kernel.charge rt
      (c.Cost_model.migrate_freeze + (words * c.Cost_model.frame_store_per_word));
    let g_opt = Hashtbl.find_opt ns.ns_gates (key canon) in
    let expected =
      match g_opt with
      | Some g -> Hashtbl.fold (fun s e acc -> (s, e) :: acc) g.g_expected []
      | None -> []
    in
    let held =
      match g_opt with
      | Some g ->
          Hashtbl.fold (fun (s, q) m acc -> (s, q, m) :: acc) g.g_held []
          |> List.sort compare
      | None -> []
    in
    Hashtbl.remove ns.ns_gates (key canon);
    Hashtbl.remove ns.ns_res (key canon);
    (* The record stays in place as the forwarding stub; every closure
       or table still pointing at it now dispatches to [Forward]. *)
    let phys_hint = { Value.node = to_; slot = -1 } in
    let f =
      { Kernel.fwd_canon = canon; fwd_to = phys_hint; fwd_epoch = epoch }
    in
    obj.Kernel.vftp <- Vft.forward f;
    Queue.clear obj.Kernel.mq;
    obj.Kernel.state <- [||];
    obj.Kernel.pending_ctor_args <- [];
    obj.Kernel.ma <- None;
    obj.Kernel.exported <- true;
    cache_learn ns canon phys_hint epoch;
    Simcore.Stats.bump t.c_out;
    let size_bytes =
      Bytes.length state + Bytes.length ctor
      + List.fold_left (fun a b -> a + Bytes.length b) 0 frames
      + 32
    in
    Engine.send_am t.machine ~src:rt.Kernel.node ~dst:to_ ~handler:t.h_install
      ~size_bytes
      (M_install
         {
           canon;
           cls_id = (Kernel.obj_class obj).Kernel.cls_id;
           epoch;
           initialized = obj.Kernel.initialized;
           state;
           ctor;
           frames;
           expected;
           history;
           gc_refs;
         });
    (* Held (out-of-order) messages chase the install on the same FIFO
       channel, keeping their original stamps; the new gate re-holds
       them until their predecessors arrive. They were in this node's
       custody since the gate accepted them, so they leave with fresh
       manifests. *)
    List.iter
      (fun (sender, seq, m) ->
        grant_out rt m;
        send_m_msg t rt ~dst:to_ ~canon ~sender ~seq ~hop:1 m)
      held;
    true
  end

(* --- install (phase 2) -------------------------------------------- *)

let unpack_tuple bytes =
  match Codec.value_of_bytes bytes with
  | Value.Tuple vs -> vs
  | _ -> failwith "Migrate: malformed install payload"

let install t rt ~canon ~cls_id ~epoch ~initialized ~state ~ctor ~frames
    ~expected ~history ~gc_refs =
  let my_id = Machine.Node.id rt.Kernel.node in
  let ns = nstate_of t my_id in
  let c = Engine.cost t.machine in
  (match rt.Kernel.shared.Kernel.gc with
  | Some g when gc_refs <> [] -> g.Kernel.gc_accept rt gc_refs
  | _ -> ());
  let cls =
    match Hashtbl.find_opt rt.Kernel.shared.Kernel.classes cls_id with
    | Some cls -> cls
    | None -> failwith "Migrate: install of unregistered class"
  in
  let state = Array.of_list (unpack_tuple state) in
  Kernel.charge rt
    (c.Cost_model.migrate_install
    + (Array.length state * c.Cost_model.frame_store_per_word));
  Machine.Node.heap_alloc_words rt.Kernel.node (8 + Array.length state);
  (* Locate or materialise the physical record. Returning to a previous
     host (including the canonical node) revives the old stub record in
     place, so everything that still points at it sees the live object
     again. *)
  let obj =
    if canon.Value.node = my_id then Sched.lookup_or_embryo rt canon.Value.slot
    else
      match Hashtbl.find_opt ns.ns_homes (key canon) with
      | Some o -> o
      | None ->
          let slot = Sched.alloc_slot rt in
          let o =
            {
              Kernel.self = canon;
              phys_slot = slot;
              cls = None;
              state = [||];
              vftp = rt.Kernel.shared.Kernel.fault_tbl;
              mq = Queue.create ();
              in_sched_q = false;
              blocked = None;
              initialized = false;
              pending_ctor_args = [];
              exported = true;
              gc_pinned = false;
              ma = None;
            }
          in
          Hashtbl.replace rt.Kernel.objects slot o;
          Hashtbl.add ns.ns_homes (key canon) o;
          o
  in
  obj.Kernel.cls <- Some cls;
  obj.Kernel.state <- state;
  obj.Kernel.initialized <- initialized;
  obj.Kernel.pending_ctor_args <- unpack_tuple ctor;
  obj.Kernel.exported <- true;
  (* A fresh activation manager at the new home: a revived stub may
     carry pre-migration admission state that no longer applies. *)
  obj.Kernel.ma <- None;
  obj.Kernel.vftp <- Sched.rest_table obj;
  Queue.clear obj.Kernel.mq;
  List.iter
    (fun b ->
      let m = Codec.decode_message b in
      accept_in rt m;
      Queue.push m obj.Kernel.mq)
    frames;
  if not (Queue.is_empty obj.Kernel.mq) then Sched.schedule_pending rt obj;
  (* The reorder gate travels with the object. *)
  Hashtbl.remove ns.ns_gates (key canon);
  let g = gate_for ns canon in
  List.iter (fun (s, e) -> Hashtbl.replace g.g_expected s e) expected;
  let res =
    {
      r_epoch = epoch;
      r_history = history;
      r_recv = Hashtbl.create 4;
      r_seen = Hashtbl.create 4;
    }
  in
  Hashtbl.replace ns.ns_res (key canon) res;
  let phys = { Value.node = my_id; slot = obj.Kernel.phys_slot } in
  Hashtbl.replace ns.ns_cache (key canon) (phys, epoch);
  Simcore.Stats.bump t.c_in;
  (* Retarget every older stub at the new home in one shot, collapsing
     forwarding chains to a single hop at quiescence. *)
  List.iter
    (fun host ->
      if host <> my_id then send_update t rt ~dst:host ~canon ~phys ~epoch)
    history;
  (* Messages that arrived before we were ready. *)
  match Hashtbl.find_opt ns.ns_limbo (key canon) with
  | None -> ()
  | Some pending ->
      let msgs = List.rev !pending in
      Hashtbl.remove ns.ns_limbo (key canon);
      List.iter
        (fun (sender, seq, _hop, msg) -> gate_submit t rt obj ~sender ~seq msg)
        msgs

(* --- receive side ------------------------------------------------- *)

let on_m_msg t rt ~canon ~sender ~seq ~hop msg =
  let my_id = Machine.Node.id rt.Kernel.node in
  let ns = nstate_of t my_id in
  let record =
    if canon.Value.node = my_id then Some (Sched.lookup_or_embryo rt canon.Value.slot)
    else Hashtbl.find_opt ns.ns_homes (key canon)
  in
  match record with
  | Some obj -> (
      match Vft.forward_info obj.Kernel.vftp with
      | Some f -> forward_via_stub t rt f ~sender ~seq ~hop:(hop + 1) msg
      | None ->
          accept_in rt msg;
          gate_submit t rt obj ~sender ~seq msg)
  | None ->
      (* We were taught this home but the install is still in flight on
         another channel: park until it lands. Parking takes custody. *)
      accept_in rt msg;
      Simcore.Stats.bump t.c_limbo;
      let cell =
        match Hashtbl.find_opt ns.ns_limbo (key canon) with
        | Some r -> r
        | None ->
            let r = ref [] in
            Hashtbl.add ns.ns_limbo (key canon) r;
            r
      in
      cell := (sender, seq, hop, msg) :: !cell

let on_m_update t rt ~canon ~phys ~epoch =
  let my_id = Machine.Node.id rt.Kernel.node in
  let ns = nstate_of t my_id in
  Kernel.charge rt (Engine.cost t.machine).Cost_model.migrate_update;
  Simcore.Stats.bump t.c_update;
  cache_learn ns canon phys epoch;
  let record =
    if canon.Value.node = my_id then
      Hashtbl.find_opt rt.Kernel.objects canon.Value.slot
    else Hashtbl.find_opt ns.ns_homes (key canon)
  in
  match record with
  | Some obj -> (
      match Vft.forward_info obj.Kernel.vftp with
      | Some f when f.Kernel.fwd_epoch < epoch ->
          f.Kernel.fwd_to <- phys;
          f.Kernel.fwd_epoch <- epoch
      | _ -> ())
  | None -> ()

(* --- policy driver ------------------------------------------------ *)

let candidates t rt =
  let shared = rt.Kernel.shared in
  let my_id = Machine.Node.id rt.Kernel.node in
  let ns = nstate_of t my_id in
  Hashtbl.fold
    (fun _slot (obj : Kernel.obj) acc ->
      if safe_point shared obj && obj.Kernel.phys_slot >= 0 then begin
        (* Affinity is judged on the receipts since this node's previous
           tick (r_recv minus r_seen), then the window is consumed. A
           lifetime tally would keep pointing at a correspondent's old
           node long after it moved — paired objects would chase each
           other's stale locations and swap forever. *)
        let dom, total =
          match Hashtbl.find_opt ns.ns_res (key obj.Kernel.self) with
          | None -> (None, 0)
          | Some r ->
              let acc =
                Hashtbl.fold
                  (fun sender n (best, total) ->
                    let seen =
                      Option.value
                        (Hashtbl.find_opt r.r_seen sender)
                        ~default:0
                    in
                    let n = n - seen in
                    let best =
                      match best with
                      | Some (_, bn) when bn >= n -> best
                      | _ when n > 0 -> Some (sender, n)
                      | _ -> best
                    in
                    (best, total + n))
                  r.r_recv (None, 0)
              in
              Hashtbl.iter (fun s n -> Hashtbl.replace r.r_seen s n) r.r_recv;
              acc
        in
        {
          Policy.cand_canon = obj.Kernel.self;
          cand_queued = Queue.length obj.Kernel.mq;
          cand_dominant_peer = Option.map fst dom;
          cand_dominant_count =
            (match dom with Some (_, n) -> n | None -> 0);
          cand_total_recv = total;
        }
        :: acc
      end
      else acc)
    rt.Kernel.objects []

let view t ~node:my_id =
  let rt = Core.System.rt t.sys my_id in
  let node = rt.Kernel.node in
  let neighbors =
    Network.Topology.neighbors (Engine.topology t.machine) my_id
  in
  {
    Policy.v_node = my_id;
    v_load = Machine.Node.runq_size node + Machine.Node.inbox_size node;
    v_neighbors =
      List.map
        (fun nb ->
          ( nb,
            match t.load with
            | Some load -> Services.Load.known_load_opt load ~node:my_id ~about:nb
            | None -> None ))
        neighbors;
    v_candidates = candidates t rt;
  }

let find_local_record t rt canon =
  let my_id = Machine.Node.id rt.Kernel.node in
  if canon.Value.node = my_id then
    Hashtbl.find_opt rt.Kernel.objects canon.Value.slot
  else Hashtbl.find_opt (nstate_of t my_id).ns_homes (key canon)

let apply_decisions t rt decisions =
  List.fold_left
    (fun moved { Policy.d_canon; d_to } ->
      match find_local_record t rt d_canon with
      | Some obj when Option.is_none (Vft.forward_info obj.Kernel.vftp) ->
          if do_move t rt obj ~to_:d_to then moved + 1 else moved
      | _ -> moved)
    0 decisions

let policy_tick t ~node:my_id =
  match t.policy with
  | None -> 0
  | Some policy ->
      let rt = Core.System.rt t.sys my_id in
      Simcore.Clock.advance_to
        (Machine.Node.clock rt.Kernel.node)
        (Engine.now t.machine);
      apply_decisions t rt (Policy.decide policy (view t ~node:my_id))

(* One synchronized policy round per interval. The subsystem's own
   Service traffic (M_msg / M_install / M_update, their reliable-layer
   acks) never counts as progress, so it cannot keep its own timer
   alive. *)
let arm_policy_timers t =
  if t.interval_ns > 0 && Option.is_some t.policy then
    Services.Rounds.arm t.machine ~interval_ns:t.interval_ns (fun ~node ->
        ignore (policy_tick t ~node))

(* --- attachment --------------------------------------------------- *)

let attach ?policy ?(interval_ns = 0) ?load sys =
  let machine = Core.System.machine sys in
  let p = Engine.node_count machine in
  let stats = Engine.stats machine in
  let tref = ref None in
  let with_t f machine_ node am =
    ignore machine_;
    f (Option.get !tref) node am
  in
  let h_msg =
    Engine.register_handler machine Machine.Am.Service ~name:"migrate-msg"
      (with_t (fun t node am ->
           match am.Machine.Am.payload with
           | M_msg { canon; sender; seq; hop; bytes } ->
               on_m_msg t (rt_of t node) ~canon ~sender ~seq ~hop
                 (Codec.decode_message bytes)
           | _ -> assert false))
  in
  let h_install =
    Engine.register_handler machine Machine.Am.Service ~name:"migrate-install"
      (with_t (fun t node am ->
           match am.Machine.Am.payload with
           | M_install
               {
                 canon;
                 cls_id;
                 epoch;
                 initialized;
                 state;
                 ctor;
                 frames;
                 expected;
                 history;
                 gc_refs;
               } ->
               install t (rt_of t node) ~canon ~cls_id ~epoch ~initialized
                 ~state ~ctor ~frames ~expected ~history ~gc_refs
           | _ -> assert false))
  in
  let h_update =
    Engine.register_handler machine Machine.Am.Service ~name:"migrate-update"
      (with_t (fun t node am ->
           match am.Machine.Am.payload with
           | M_update { canon; phys; epoch } ->
               on_m_update t (rt_of t node) ~canon ~phys ~epoch
           | _ -> assert false))
  in
  let t =
    {
      sys;
      machine;
      h_msg;
      h_install;
      h_update;
      states =
        Array.init p (fun _ ->
            {
              ns_homes = Hashtbl.create 32;
              ns_res = Hashtbl.create 32;
              ns_gates = Hashtbl.create 32;
              ns_limbo = Hashtbl.create 8;
              ns_seq_out = Hashtbl.create 32;
              ns_cache = Hashtbl.create 32;
            });
      policy;
      interval_ns;
      load;
      c_out = Simcore.Stats.counter stats "migrate.out";
      c_in = Simcore.Stats.counter stats "migrate.in";
      c_fwd = Simcore.Stats.counter stats "migrate.forward";
      c_fwd_node =
        Array.init p (fun i ->
            Simcore.Stats.counter stats (Printf.sprintf "migrate.forward.node%d" i));
      c_update = Simcore.Stats.counter stats "migrate.update";
      c_held = Simcore.Stats.counter stats "migrate.held";
      c_limbo = Simcore.Stats.counter stats "migrate.limbo";
      c_dup = Simcore.Stats.counter stats "migrate.dup_drop";
      c_colocated = Simcore.Stats.counter stats "migrate.colocated";
    }
  in
  tref := Some t;
  let shared = (Core.System.rt sys 0).Kernel.shared in
  shared.Kernel.migration <-
    Some
      {
        Kernel.mig_send = (fun rt canon msg -> mig_send t rt canon msg);
        mig_forward = (fun rt obj msg -> mig_forward t rt obj msg);
        mig_gate_local = (fun rt obj msg -> mig_gate_local t rt obj msg);
        mig_retire = (fun rt obj -> mig_retire t rt obj);
      };
  arm_policy_timers t;
  t

(* --- manual moves and introspection ------------------------------- *)

let locate t canon =
  let rec follow node guard =
    if guard > Engine.node_count t.machine + 2 then canon.Value.node
    else
      let rt = Core.System.rt t.sys node in
      match find_local_record t rt canon with
      | Some obj -> (
          match Vft.forward_info obj.Kernel.vftp with
          | Some f -> follow f.Kernel.fwd_to.Value.node (guard + 1)
          | None -> node)
      | None -> node
  in
  follow canon.Value.node 0

let move t ~canon ~to_ =
  let host = locate t canon in
  if host = to_ then false
  else
    let rt = Core.System.rt t.sys host in
    Simcore.Clock.advance_to
      (Machine.Node.clock rt.Kernel.node)
      (Engine.now t.machine);
    match find_local_record t rt canon with
    | Some obj when Option.is_none (Vft.forward_info obj.Kernel.vftp) ->
        do_move t rt obj ~to_
    | _ -> false

(* Crash-recovery repair: a restarted node re-teaches the cluster where
   its residents live. Any object that ever migrated here left
   forwarding stubs (or stale caches) on its previous hosts; those
   hosts may have missed the install-time M_update broadcast if it died
   with the crash. Re-sending the updates is idempotent — M_update
   installs are epoch-guarded, so a host that already knows this (or a
   newer) epoch ignores the re-advertisement — and it collapses any
   forwarding chain that still points through a dead hop at this
   object's history. Returns the number of updates sent. *)
let readvertise t ~node =
  let ns = nstate_of t node in
  let rt = Core.System.rt t.sys node in
  let sent = ref 0 in
  Hashtbl.iter
    (fun ((cnode, cslot) as k) (res : resident) ->
      if res.r_epoch > 0 then
        match Hashtbl.find_opt ns.ns_cache k with
        | Some (phys, epoch) when phys.Value.node = node ->
            let canon = { Value.node = cnode; slot = cslot } in
            List.iter
              (fun host ->
                if host <> node then begin
                  send_update t rt ~dst:host ~canon ~phys ~epoch;
                  incr sent
                end)
              res.r_history
        | Some _ | None -> ())
    ns.ns_res;
  Simcore.Stats.add (Engine.stats t.machine) "migrate.readvertise" !sent;
  !sent

let migrations t = (Simcore.Stats.read t.c_out)
let forwarded t = (Simcore.Stats.read t.c_fwd)
let colocated_sends t = (Simcore.Stats.read t.c_colocated)

let stub_count t ~node =
  Hashtbl.fold
    (fun _ (obj : Kernel.obj) acc ->
      if Option.is_some (Vft.forward_info obj.Kernel.vftp) then acc + 1 else acc)
    (Core.System.rt t.sys node).Kernel.objects 0

(* Structural chain length at quiescence: from every live stub, how many
   hops to the node actually hosting the object? The proactive
   [M_update] broadcast at install keeps this at <= 1. *)
let max_stub_chain t =
  let p = Engine.node_count t.machine in
  let longest = ref 0 in
  for node = 0 to p - 1 do
    let rt = Core.System.rt t.sys node in
    Hashtbl.iter
      (fun _ (obj : Kernel.obj) ->
        match Vft.forward_info obj.Kernel.vftp with
        | None -> ()
        | Some f ->
            let rec chase node len =
              if len > p + 2 then len
              else
                let rt = Core.System.rt t.sys node in
                match find_local_record t rt f.Kernel.fwd_canon with
                | Some o -> (
                    match Vft.forward_info o.Kernel.vftp with
                    | Some f' -> chase f'.Kernel.fwd_to.Value.node (len + 1)
                    | None -> len)
                | None -> len
            in
            longest := max !longest (chase f.Kernel.fwd_to.Value.node 1))
      rt.Kernel.objects
  done;
  !longest

(* --- distributed-GC integration ----------------------------------- *)

let resident_info t canon =
  let host = locate t canon in
  Hashtbl.find_opt (nstate_of t host).ns_res (key canon)

let history t ~canon =
  match resident_info t canon with Some r -> r.r_history | None -> []

let resident_epoch t ~canon =
  match resident_info t canon with Some r -> r.r_epoch | None -> 0

(* One step of a recall: push the object on this node a hop toward its
   canonical home (or report where to chase next). *)
let evict t ~node:my_id ~canon =
  let rt = Core.System.rt t.sys my_id in
  match find_local_record t rt canon with
  | None -> `Absent
  | Some obj -> (
      match Vft.forward_info obj.Kernel.vftp with
      | Some f -> `Stub f.Kernel.fwd_to.Value.node
      | None ->
          if canon.Value.node = my_id then `Moved (* already home *)
          else if do_move t rt obj ~to_:canon.Value.node then `Moved
          else `Busy)

(* Epoch-guarded stub removal: a stub whose epoch exceeds the guard
   belongs to a *newer* life of the object (it migrated again after the
   reclaim decision was taken) and must stay. Returns the removed record
   so the caller can recycle its physical slot. *)
let drop_stub t ~node:my_id ~canon ~epoch =
  let rt = Core.System.rt t.sys my_id in
  match find_local_record t rt canon with
  | None -> None
  | Some obj -> (
      match Vft.forward_info obj.Kernel.vftp with
      | Some f when f.Kernel.fwd_epoch <= epoch ->
          Hashtbl.remove rt.Kernel.objects obj.Kernel.phys_slot;
          let ns = nstate_of t my_id in
          Hashtbl.remove ns.ns_homes (key canon);
          Hashtbl.remove ns.ns_cache (key canon);
          Some obj
      | _ -> None)

(* Scrub every trace of a reclaimed object from the subsystem's tables
   on all nodes, so a recycled slot starts with virgin sequence spaces
   (a stale [ns_seq_out] at some sender against a fresh gate would hold
   the new object's messages forever). Sound because the caller frees
   the object only at scion zero — no reference survives anywhere, so no
   node can ever stamp another message for this address. On a real
   machine this is a broadcast in the reclaim protocol; the simulator
   scrubs directly. *)
let forget t ~canon =
  let k = key canon in
  Array.iter
    (fun ns ->
      Hashtbl.remove ns.ns_seq_out k;
      Hashtbl.remove ns.ns_cache k;
      Hashtbl.remove ns.ns_gates k;
      Hashtbl.remove ns.ns_res k;
      Hashtbl.remove ns.ns_limbo k)
    t.states

(* Root values for a local GC trace: messages parked in reorder gates or
   limbo buffers live outside any object's queue, and the object a
   non-empty gate or limbo belongs to must survive until they drain. *)
let parked_refs t ~node:my_id =
  let ns = nstate_of t my_id in
  let acc = ref [] in
  let add_msg (m : Message.t) =
    acc := Value.List m.Message.args :: !acc;
    (match m.Message.reply with
    | Some a -> acc := Value.Addr a :: !acc
    | None -> ());
    List.iter
      (fun (r : Message.gc_ref) -> acc := Value.Addr r.Message.gr_addr :: !acc)
      m.Message.gc_refs
  in
  Hashtbl.iter
    (fun (n, s) g ->
      if Hashtbl.length g.g_held > 0 then
        acc := Value.Addr { Value.node = n; slot = s } :: !acc;
      Hashtbl.iter (fun _ m -> add_msg m) g.g_held)
    ns.ns_gates;
  Hashtbl.iter
    (fun (n, s) r ->
      acc := Value.Addr { Value.node = n; slot = s } :: !acc;
      List.iter (fun (_, _, _, m) -> add_msg m) !r)
    ns.ns_limbo;
  !acc

(* Conservation residue: anything still parked in a reorder gate or a
   limbo buffer at quiescence is a lost message. *)
let residual t =
  Array.fold_left
    (fun (held, limbo) ns ->
      let held =
        Hashtbl.fold (fun _ g acc -> acc + Hashtbl.length g.g_held) ns.ns_gates
          held
      in
      let limbo =
        Hashtbl.fold (fun _ r acc -> acc + List.length !r) ns.ns_limbo limbo
      in
      (held, limbo))
    (0, 0) t.states
