(** Distributed garbage collection for [(node, pointer)] mail addresses.

    The scheme is weighted reference counting with indirection (in the
    Bevan / Watson–Watson tradition), chosen because it needs {e no}
    synchronous round-trips on the mutator path — the property that
    matters on a stock multicomputer where every message is software
    overhead:

    - The {e owner} of an object (its canonical node) keeps a {e scion}:
      the net weight it has handed out for the object's address.
    - Every other node that holds the address keeps a {e stub} entry
      with part of that weight. Copying the address into an outgoing
      message, state box or constructor-argument list {e splits} the
      local weight — no communication. Dropping the last local use
      refunds the stub's weight to the owner in a {e batched decrement}
      message that rides the same reliable-delivery layer as everything
      else, so a lossy fabric cannot unbalance the counts.
    - When a weight of 1 cannot be split, the export becomes an
      {e indirection} entry backed by this node ([st_ind_out]); the
      importer either consolidates it against weight it already holds or
      records the backer ([st_ind_from]) and releases it on its own
      reclaim. Again no synchronous refill round-trip.
    - A node exporting an address it holds no weight for (an immigrant
      shipping its own address home-ward, a boot-time reference) mints
      owner weight {e asynchronously} with a [G_debit]: the manifest
      carries real weight immediately and the owner's scion catches up
      when the debit lands. A decrement can beat its debit, driving the
      scion transiently negative — negative is not zero, so reclaim
      still waits for balance.

    The invariant, at quiescence: {e scion(o) = sum of stub weights +
    pending decrements}, and every indirection out is matched by an
    indirection from or a pending indirection release ({!audit} checks
    both).

    Reclaim is driven by per-node sweeps ({!Services.Local_gc.sweep}
    with this module's hooks): an object is freed when its scion is zero
    and no live local object references it. A freed slot is quarantined
    for one sweep round and then pushed back into the node's allocation
    pool, where both local creation and the chunk-stock replenishment
    path ([Sched.alloc_slot]) draw from it — collection {e is} the stock
    refill path. An object that migrated away is recalled home hop by
    hop ([G_recall] / {!Migrate.evict}) and, once freed at home, its
    forwarding stubs are dismantled with epoch-guarded [G_unstub]s and
    its sequence/gate state scrubbed ({!Migrate.forget}) so the slot can
    be reused safely.

    Limitation (documented, by design): reference {e counting} cannot
    collect cross-node cycles of dead objects — a pair of objects on
    different nodes holding each other's addresses keeps both scions
    positive forever. Acyclic garbage, which dominates actor programs,
    is collected; cycle collection would need a complementary global
    trace. *)

module Engine = Machine.Engine
module Kernel = Core.Kernel
module Value = Core.Value
module Sched = Core.Sched
module Vft = Core.Vft
module Message = Core.Message
module Cost_model = Machine.Cost_model
module Local_gc = Services.Local_gc

type Machine.Am.payload +=
  | G_dec of {
      decs : (int * int) list;  (** (owner slot, weight) refunds *)
      ind_decs : ((int * int) * int) list;
          (** (canonical key, count) indirection releases for a backer *)
    }
  | G_debit of { slot : int; weight : int }
      (** mint owner weight for an export the sender held no weight for *)
  | G_recall of { canon : Value.addr; hop : int }
      (** owner asks the current host to push the object home *)
  | G_unstub of { canon : Value.addr; epoch : int }
      (** the object is freed: drop your forwarding stub (epoch-guarded) *)

type stub = {
  mutable st_weight : int;
  mutable st_ind_out : int;
      (** indirection entries this node backs for other holders *)
  st_ind_from : (int, int) Hashtbl.t;
      (** backer node -> indirections this node's claim rests on *)
  mutable st_marked : bool;  (** reached by the current sweep's trace *)
}

type batch = {
  mutable b_decs : (int * int) list;
  mutable b_inds : ((int * int) * int) list;
}

type dstate = {
  d_scion : (int, int ref) Hashtbl.t;  (** local slot -> net weight out *)
  d_stubs : (int * int, stub) Hashtbl.t;  (** canonical key -> claim *)
  d_out : (int, batch) Hashtbl.t;  (** destination -> pending decrements *)
  d_localref : (int, unit) Hashtbl.t;
      (** native slots some live local object referenced, per sweep *)
  mutable d_quarantine : int list;  (** slots freed one sweep ago *)
  mutable d_fresh : int list;  (** slots freed this sweep *)
}

type t = {
  sys : Core.System.t;
  machine : Engine.t;
  migrate : Migrate.t option;
  grant : int;
  interval_ns : int;
  h_dec : int;
  h_debit : int;
  h_recall : int;
  h_unstub : int;
  nodes : dstate array;
  c_sweeps : Simcore.Stats.cell;
  c_sweeps_skipped : Simcore.Stats.cell;
  c_reclaimed : Simcore.Stats.cell;
  c_stubs_freed : Simcore.Stats.cell;
  c_restocked : Simcore.Stats.cell;
  c_dec_msgs : Simcore.Stats.cell;
  c_dec_piggybacked : Simcore.Stats.cell;
  c_dec_entries : Simcore.Stats.cell;
  c_grants : Simcore.Stats.cell;
  c_splits : Simcore.Stats.cell;
  c_indirections : Simcore.Stats.cell;
  c_debits : Simcore.Stats.cell;
  c_conjures : Simcore.Stats.cell;
  c_recalls : Simcore.Stats.cell;
  c_unstubs : Simcore.Stats.cell;
}

let key (a : Value.addr) = (a.Value.node, a.Value.slot)

let scion_cell d slot =
  match Hashtbl.find_opt d.d_scion slot with
  | Some c -> c
  | None ->
      let c = ref 0 in
      Hashtbl.add d.d_scion slot c;
      c

let stub_for d k =
  match Hashtbl.find_opt d.d_stubs k with
  | Some s -> s
  | None ->
      let s =
        {
          st_weight = 0;
          st_ind_out = 0;
          st_ind_from = Hashtbl.create 2;
          st_marked = false;
        }
      in
      Hashtbl.add d.d_stubs k s;
      s

let batch_for d dst =
  match Hashtbl.find_opt d.d_out dst with
  | Some b -> b
  | None ->
      let b = { b_decs = []; b_inds = [] } in
      Hashtbl.add d.d_out dst b;
      b

let out_dec d dst slot w =
  let b = batch_for d dst in
  b.b_decs <- (slot, w) :: b.b_decs

let out_ind d dst k c =
  let b = batch_for d dst in
  b.b_inds <- (k, c) :: b.b_inds

(* --- the export hook (Kernel.gc.gc_grant) ------------------------- *)

let collect_addrs values reply =
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  let note (a : Value.addr) =
    let k = (a.Value.node, a.Value.slot) in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.add seen k ();
      out := a :: !out
    end
  in
  let rec walk (v : Value.t) =
    match v with
    | Value.Addr a -> note a
    | Value.List vs | Value.Tuple vs -> List.iter walk vs
    | Value.Unit | Value.Bool _ | Value.Int _ | Value.Float _ | Value.Str _ ->
        ()
  in
  List.iter walk values;
  Option.iter note reply;
  List.rev !out

(* One manifest entry per distinct address leaving this node's custody.
   The weight comes from wherever this node's claim lives: the scion if
   we are the owner, a split of the local stub otherwise, an indirection
   when the stub is too light to split, a debit when there is no claim
   at all. *)
let gc_grant t rt values reply =
  let my_id = Machine.Node.id rt.Kernel.node in
  let d = t.nodes.(my_id) in
  let c = Engine.cost t.machine in
  List.map
    (fun (a : Value.addr) ->
      Kernel.charge rt c.Cost_model.gc_dec_entry;
      if a.Value.node = my_id then begin
        let cell = scion_cell d a.Value.slot in
        cell := !cell + t.grant;
        Simcore.Stats.bump t.c_grants;
        { Message.gr_addr = a; gr_weight = t.grant; gr_backer = -1 }
      end
      else
        match Hashtbl.find_opt d.d_stubs (key a) with
        | Some st when st.st_weight >= 2 ->
            let half = st.st_weight / 2 in
            st.st_weight <- st.st_weight - half;
            Simcore.Stats.bump t.c_splits;
            { Message.gr_addr = a; gr_weight = half; gr_backer = -1 }
        | Some st ->
            st.st_ind_out <- st.st_ind_out + 1;
            Simcore.Stats.bump t.c_indirections;
            { Message.gr_addr = a; gr_weight = 0; gr_backer = my_id }
        | None ->
            (* No counted claim here — an immigrant exporting its own
               address, or a reference that predates attachment. Mint
               owner weight asynchronously; the entry carries real
               weight at once and the scion catches up when the debit
               lands (a decrement overtaking it merely drives the scion
               transiently negative, which blocks reclaim just as well). *)
            Simcore.Stats.bump t.c_debits;
            Engine.send_am t.machine ~src:rt.Kernel.node ~dst:a.Value.node
              ~handler:t.h_debit ~size_bytes:12
              (G_debit { slot = a.Value.slot; weight = t.grant });
            { Message.gr_addr = a; gr_weight = t.grant; gr_backer = -1 })
    (collect_addrs values reply)

(* --- the conjure pair (Kernel.gc.gc_conjure / gc_conjured) --------- *)

(* Remote creation: the creator claims [grant] weight for the address it
   conjured; the owner mints the matching scion credit while processing
   the creation request itself. Because mint and claim travel inside the
   (FIFO-ordered) creation message, no decrement for this incarnation
   can be applied before the mint — the asynchronous-debit variant left
   a window in which a sweep saw no scion entry and freed the newborn
   under its creator's live reference. *)
let gc_conjure t rt (a : Value.addr) =
  Kernel.charge rt (Engine.cost t.machine).Cost_model.gc_dec_entry;
  Simcore.Stats.bump t.c_conjures;
  { Message.gr_addr = a; gr_weight = t.grant; gr_backer = -1 }

let gc_conjured t rt slot =
  let d = t.nodes.(Machine.Node.id rt.Kernel.node) in
  let cell = scion_cell d slot in
  cell := !cell + t.grant

(* --- the import hook (Kernel.gc.gc_accept) ------------------------ *)

let gc_accept t rt refs =
  let my_id = Machine.Node.id rt.Kernel.node in
  let d = t.nodes.(my_id) in
  let c = Engine.cost t.machine in
  List.iter
    (fun { Message.gr_addr = a; gr_weight = w; gr_backer = b } ->
      Kernel.charge rt c.Cost_model.gc_dec_entry;
      if a.Value.node = my_id then begin
        (* The reference came home: local references carry no weight. *)
        let cell = scion_cell d a.Value.slot in
        cell := !cell - w;
        if w = 0 && b >= 0 && b <> my_id then out_ind d b (key a) 1
      end
      else begin
        let st = stub_for d (key a) in
        st.st_weight <- st.st_weight + w;
        if w = 0 && b >= 0 then
          if b = my_id then st.st_ind_out <- st.st_ind_out - 1
          else if st.st_weight > 0 then
            (* already hold real weight: release the indirection rather
               than track a redundant dependency *)
            out_ind d b (key a) 1
          else
            Hashtbl.replace st.st_ind_from b
              (1 + Option.value (Hashtbl.find_opt st.st_ind_from b) ~default:0)
      end)
    refs

(* --- decrement delivery ------------------------------------------- *)

(* Snapshot the pending table before sending: with aggregation live,
   send_am can flush a batch, which re-enters this module through the
   piggyback hook below — mutating [d_out] mid-[Hashtbl.iter] would be
   undefined. After the reset the hook just finds the table empty. *)
let flush t rt d =
  let pending = Hashtbl.fold (fun dst b acc -> (dst, b) :: acc) d.d_out [] in
  Hashtbl.reset d.d_out;
  List.iter
    (fun (dst, b) ->
      if b.b_decs <> [] || b.b_inds <> [] then begin
        let n = List.length b.b_decs + List.length b.b_inds in
        Simcore.Stats.bump t.c_dec_msgs;
        Simcore.Stats.bump_n t.c_dec_entries n;
        Engine.send_am t.machine ~src:rt.Kernel.node ~dst ~handler:t.h_dec
          ~size_bytes:(8 + (8 * n))
          (G_dec { decs = b.b_decs; ind_decs = b.b_inds })
      end)
    pending

(* Flush-time piggyback: a batch from [src] to [dst] is leaving anyway,
   so any decrements parked for that destination ride it — the refund
   traffic the paper worries about stops costing packets of its own. *)
let piggyback_riders t ~src ~dst =
  let d = t.nodes.(src) in
  match Hashtbl.find_opt d.d_out dst with
  | None -> []
  | Some b ->
      Hashtbl.remove d.d_out dst;
      if b.b_decs = [] && b.b_inds = [] then []
      else begin
        let n = List.length b.b_decs + List.length b.b_inds in
        Simcore.Stats.bump t.c_dec_msgs;
        Simcore.Stats.bump t.c_dec_piggybacked;
        Simcore.Stats.bump_n t.c_dec_entries n;
        [
          {
            Machine.Am.handler = t.h_dec;
            src;
            size_bytes = 8 + (8 * n);
            payload = G_dec { decs = b.b_decs; ind_decs = b.b_inds };
          };
        ]
      end

let on_dec t node_id rt ~decs ~ind_decs =
  let d = t.nodes.(node_id) in
  let c = Engine.cost t.machine in
  List.iter
    (fun (slot, w) ->
      Kernel.charge rt c.Cost_model.gc_dec_entry;
      let cell = scion_cell d slot in
      cell := !cell - w)
    decs;
  List.iter
    (fun (k, cnt) ->
      Kernel.charge rt c.Cost_model.gc_dec_entry;
      match Hashtbl.find_opt d.d_stubs k with
      | Some st -> st.st_ind_out <- st.st_ind_out - cnt
      | None -> ())
    ind_decs

let on_debit t node_id ~slot ~weight =
  let d = t.nodes.(node_id) in
  let cell = scion_cell d slot in
  cell := !cell + weight

(* --- migrated-object reclamation ---------------------------------- *)

let on_recall t node_id rt ~canon ~hop =
  match t.migrate with
  | None -> ()
  | Some m -> (
      match Migrate.evict m ~node:node_id ~canon with
      | `Stub next ->
          if hop < 4 * Engine.node_count t.machine && next <> node_id then
            Engine.send_am t.machine ~src:rt.Kernel.node ~dst:next
              ~handler:t.h_recall ~size_bytes:16
              (G_recall { canon; hop = hop + 1 })
      | `Moved | `Busy | `Absent ->
          (* [`Busy] resolves itself: the owner re-issues the recall on
             its next sweep as long as the stub and drained scion are
             still there. *)
          ())

let on_unstub t node_id rt ~canon ~epoch =
  match t.migrate with
  | None -> ()
  | Some m -> (
      match Migrate.drop_stub m ~node:node_id ~canon ~epoch with
      | Some obj ->
          Simcore.Stats.bump t.c_unstubs;
          Machine.Node.heap_free_words rt.Kernel.node 8;
          let d = t.nodes.(node_id) in
          d.d_fresh <- obj.Kernel.phys_slot :: d.d_fresh
      | None -> ())

(* --- the sweep ----------------------------------------------------- *)

let sweep t ~node =
  let rt = Core.System.rt t.sys node in
  let d = t.nodes.(node) in
  (* Slots quarantined one full sweep ago go back to the allocator;
     local creation and chunk-stock replenishment both draw from this
     pool, making collection the stock refill path. The one-round
     quarantine lets straggler traffic naming the old tenant drain. *)
  List.iter
    (fun slot ->
      Sched.recycle_slot rt slot;
      Simcore.Stats.bump t.c_restocked)
    d.d_quarantine;
  d.d_quarantine <- [];
  Hashtbl.iter (fun _ st -> st.st_marked <- false) d.d_stubs;
  Hashtbl.reset d.d_localref;
  let hooks =
    {
      Local_gc.remote_live =
        (fun (o : Kernel.obj) ->
          o.Kernel.self.Value.node = node
          &&
          match Hashtbl.find_opt d.d_scion o.Kernel.self.Value.slot with
          | Some w -> !w <> 0
          | None -> false);
      on_remote_ref =
        (fun a ->
          match Hashtbl.find_opt d.d_stubs (key a) with
          | Some st -> st.st_marked <- true
          | None -> ());
      on_local_ref = (fun a -> Hashtbl.replace d.d_localref a.Value.slot ());
      extra_roots =
        (match t.migrate with
        | Some m -> fun () -> Migrate.parked_refs m ~node
        | None -> fun () -> []);
      on_free =
        (fun (obj : Kernel.obj) ->
          Simcore.Stats.bump t.c_reclaimed;
          Hashtbl.remove d.d_scion obj.Kernel.self.Value.slot;
          (match t.migrate with
          | Some m ->
              let canon = obj.Kernel.self in
              let epoch = Migrate.resident_epoch m ~canon in
              if epoch > 0 then
                List.iter
                  (fun host ->
                    if host <> node then
                      Engine.send_am t.machine ~src:rt.Kernel.node ~dst:host
                        ~handler:t.h_unstub ~size_bytes:16
                        (G_unstub { canon; epoch }))
                  (Migrate.history m ~canon);
              Migrate.forget m ~canon
          | None -> ());
          d.d_fresh <- obj.Kernel.phys_slot :: d.d_fresh);
      recycle = false;
    }
  in
  let outcome = Local_gc.sweep ~hooks t.sys ~node in
  (match outcome with
  | Local_gc.Skipped _ ->
      (* Nothing was traced, so the stub marks mean nothing: no stub
         reclaim or recall this round. *)
      Simcore.Stats.bump t.c_sweeps_skipped
  | Local_gc.Swept _ ->
      Simcore.Stats.bump t.c_sweeps;
      let c = Engine.cost t.machine in
      (* Unreferenced stubs refund their weight to the owner and release
         their backers, batched per destination. A stub someone still
         depends on (st_ind_out > 0) must outlive its dependents. *)
      let victims =
        Hashtbl.fold
          (fun k st acc ->
            if (not st.st_marked) && st.st_ind_out = 0 then (k, st) :: acc
            else acc)
          d.d_stubs []
      in
      List.iter
        (fun (((onode, oslot) as k), st) ->
          Hashtbl.remove d.d_stubs k;
          Simcore.Stats.bump t.c_stubs_freed;
          if st.st_weight > 0 then begin
            Kernel.charge rt c.Cost_model.gc_dec_entry;
            out_dec d onode oslot st.st_weight
          end;
          Hashtbl.iter
            (fun b cnt ->
              Kernel.charge rt c.Cost_model.gc_dec_entry;
              out_ind d b k cnt)
            st.st_ind_from)
        victims;
      (* Drained scions whose record is already gone — disposed reply
         destinations, explicitly retired objects — release their slot. *)
      let drained =
        Hashtbl.fold
          (fun slot w acc ->
            if !w = 0 && not (Hashtbl.mem rt.Kernel.objects slot) then
              slot :: acc
            else acc)
          d.d_scion []
      in
      List.iter
        (fun slot ->
          Hashtbl.remove d.d_scion slot;
          d.d_fresh <- slot :: d.d_fresh)
        drained;
      (* Recall-home: a native forwarding stub whose scion drained and
         that no live local object points at fronts for an object nobody
         references — ask its host to push it home; a later sweep frees
         it here and dismantles the chain. *)
      (match t.migrate with
      | Some _ ->
          Hashtbl.iter
            (fun slot (obj : Kernel.obj) ->
              if
                obj.Kernel.self.Value.node = node
                && (not (Hashtbl.mem d.d_localref slot))
                && (match Hashtbl.find_opt d.d_scion slot with
                   | Some w -> !w = 0
                   | None -> true)
              then
                match Vft.forward_info obj.Kernel.vftp with
                | Some f ->
                    Simcore.Stats.bump t.c_recalls;
                    Engine.send_am t.machine ~src:rt.Kernel.node
                      ~dst:f.Kernel.fwd_to.Value.node ~handler:t.h_recall
                      ~size_bytes:16
                      (G_recall { canon = obj.Kernel.self; hop = 0 })
                | None -> ())
            rt.Kernel.objects
      | None -> ()));
  flush t rt d;
  d.d_quarantine <- d.d_fresh;
  d.d_fresh <- [];
  outcome

let sweep_all t =
  for i = 0 to Engine.node_count t.machine - 1 do
    ignore (sweep t ~node:i)
  done

let work t =
  (Simcore.Stats.read t.c_reclaimed) + (Simcore.Stats.read t.c_stubs_freed) + (Simcore.Stats.read t.c_restocked) + (Simcore.Stats.read t.c_unstubs)
  + (Simcore.Stats.read t.c_recalls) + (Simcore.Stats.read t.c_dec_msgs)

(* Slots on their way back to the allocator. Settle must keep going
   while any exist even if no counter moved this round (the
   scion-cleanup phase frees slots without other observable work). *)
let pending_slots t =
  Array.fold_left
    (fun acc d -> acc + List.length d.d_fresh + List.length d.d_quarantine)
    0 t.nodes

let settle ?(max_rounds = 16) t =
  let rec loop i last =
    sweep_all t;
    Core.System.run t.sys;
    let w = work t + pending_slots t in
    if (w <> last || pending_slots t > 0) && i < max_rounds then loop (i + 1) w
  in
  loop 0 (-1)

(* --- periodic driver (same pacing discipline as lib/migrate) ------- *)

let app_progress t =
  let get = Simcore.Stats.get (Engine.stats t.machine) in
  get "send.remote" + get "send.local.dormant" + get "send.local.active"
  + get "send.local.inlined"
  + get "send.local.naive_buffered"
  + get "send.local.depth_limited"
  + get "send.local.restore" + get "send.local.fault" + get "create.local"
  + get "create.remote"

let max_quiet_rounds = 4

let arm_timers t =
  if t.interval_ns > 0 then begin
    let p = Engine.node_count t.machine in
    let rec tick last quiet () =
      (* Quiet means neither the application nor the collector itself
         made progress: re-arming then would sweep an unchanging heap
         forever. Collector work resets the counter because reclamation
         cascades (recall, unstub, restock) span several rounds after
         the application goes quiet. *)
      let progress = app_progress t + work t in
      let quiet = if progress = last then quiet + 1 else 0 in
      if quiet < max_quiet_rounds then begin
        let round = ref (Engine.now t.machine) in
        for i = 0 to p - 1 do
          round := max !round (Machine.Node.now (Engine.node t.machine i))
        done;
        for i = 0 to p - 1 do
          Simcore.Clock.advance_to
            (Machine.Node.clock (Engine.node t.machine i))
            !round;
          ignore (sweep t ~node:i)
        done;
        Engine.schedule_at t.machine ~time:(!round + t.interval_ns)
          (tick progress quiet)
      end
    in
    Engine.schedule_at t.machine ~time:t.interval_ns (tick 0 0)
  end

(* --- attachment ---------------------------------------------------- *)

let attach ?migrate ?(interval_ns = 0) ?(grant_weight = 64) sys =
  if grant_weight < 2 then
    invalid_arg "Dgc.attach: grant_weight must be >= 2";
  if grant_weight > 0xFF_FFFF then
    invalid_arg "Dgc.attach: grant_weight exceeds the codec's length field";
  let machine = Core.System.machine sys in
  let p = Engine.node_count machine in
  let stats = Engine.stats machine in
  let tref = ref None in
  let with_t f machine_ node am =
    ignore machine_;
    f (Option.get !tref) node am
  in
  let h_dec =
    Engine.register_handler machine Machine.Am.Service ~name:"dgc-dec"
      (with_t (fun t node am ->
           match am.Machine.Am.payload with
           | G_dec { decs; ind_decs } ->
               let id = Machine.Node.id node in
               on_dec t id (Core.System.rt t.sys id) ~decs ~ind_decs
           | _ -> assert false))
  in
  let h_debit =
    Engine.register_handler machine Machine.Am.Service ~name:"dgc-debit"
      (with_t (fun t node am ->
           match am.Machine.Am.payload with
           | G_debit { slot; weight } ->
               on_debit t (Machine.Node.id node) ~slot ~weight
           | _ -> assert false))
  in
  let h_recall =
    Engine.register_handler machine Machine.Am.Service ~name:"dgc-recall"
      (with_t (fun t node am ->
           match am.Machine.Am.payload with
           | G_recall { canon; hop } ->
               let id = Machine.Node.id node in
               on_recall t id (Core.System.rt t.sys id) ~canon ~hop
           | _ -> assert false))
  in
  let h_unstub =
    Engine.register_handler machine Machine.Am.Service ~name:"dgc-unstub"
      (with_t (fun t node am ->
           match am.Machine.Am.payload with
           | G_unstub { canon; epoch } ->
               let id = Machine.Node.id node in
               on_unstub t id (Core.System.rt t.sys id) ~canon ~epoch
           | _ -> assert false))
  in
  let ctr = Simcore.Stats.counter stats in
  let t =
    {
      sys;
      machine;
      migrate;
      grant = grant_weight;
      interval_ns;
      h_dec;
      h_debit;
      h_recall;
      h_unstub;
      nodes =
        Array.init p (fun _ ->
            {
              d_scion = Hashtbl.create 64;
              d_stubs = Hashtbl.create 64;
              d_out = Hashtbl.create 8;
              d_localref = Hashtbl.create 64;
              d_quarantine = [];
              d_fresh = [];
            });
      c_sweeps = ctr "dgc.sweeps";
      c_sweeps_skipped = ctr "dgc.sweeps_skipped";
      c_reclaimed = ctr "dgc.reclaimed";
      c_stubs_freed = ctr "dgc.stubs_freed";
      c_restocked = ctr "dgc.restocked";
      c_dec_msgs = ctr "dgc.dec.msgs";
      c_dec_piggybacked = ctr "dgc.dec.piggybacked";
      c_dec_entries = ctr "dgc.dec.entries";
      c_grants = ctr "dgc.grants";
      c_splits = ctr "dgc.splits";
      c_indirections = ctr "dgc.indirections";
      c_debits = ctr "dgc.debits";
      c_conjures = ctr "dgc.conjures";
      c_recalls = ctr "dgc.recalls";
      c_unstubs = ctr "dgc.unstubs";
    }
  in
  tref := Some t;
  Engine.set_piggyback_source machine
    (Some (fun ~src ~dst -> piggyback_riders t ~src ~dst));
  let shared = (Core.System.rt sys 0).Kernel.shared in
  shared.Kernel.gc <-
    Some
      {
        Kernel.gc_grant = (fun rt values reply -> gc_grant t rt values reply);
        gc_accept = (fun rt refs -> gc_accept t rt refs);
        gc_conjure = (fun rt a -> gc_conjure t rt a);
        gc_conjured = (fun rt slot -> gc_conjured t rt slot);
      };
  arm_timers t;
  t

let detach t =
  Engine.set_piggyback_source t.machine None;
  let shared = (Core.System.rt t.sys 0).Kernel.shared in
  shared.Kernel.gc <- None

(* --- introspection ------------------------------------------------- *)

let reclaimed t = (Simcore.Stats.read t.c_reclaimed)
let stubs_freed t = (Simcore.Stats.read t.c_stubs_freed)
let restocked t = (Simcore.Stats.read t.c_restocked)
let recalls t = (Simcore.Stats.read t.c_recalls)
let unstubs t = (Simcore.Stats.read t.c_unstubs)
let dec_entries t = (Simcore.Stats.read t.c_dec_entries)
let dec_piggybacked t = (Simcore.Stats.read t.c_dec_piggybacked)

let scion_weight t ~node ~slot =
  match Hashtbl.find_opt t.nodes.(node).d_scion slot with
  | Some w -> !w
  | None -> 0

let stub_weight t ~node ~canon =
  match Hashtbl.find_opt t.nodes.(node).d_stubs (key canon) with
  | Some st -> st.st_weight
  | None -> 0

let has_stub t ~node ~canon = Hashtbl.mem t.nodes.(node).d_stubs (key canon)

let resident_objects t ~node =
  Hashtbl.length (Core.System.rt t.sys node).Kernel.objects

let total_resident t =
  let p = Engine.node_count t.machine in
  let n = ref 0 in
  for i = 0 to p - 1 do
    n := !n + resident_objects t ~node:i
  done;
  !n

(* Conservation audit, valid at quiescence (no message in flight, so
   every manifest has been imported). For each canonical address:
   scion = sum of stub weights + pending batched decrements, and
   indirections out = indirections from + pending releases. *)
let audit t =
  let p = Engine.node_count t.machine in
  let claim = Hashtbl.create 64 in
  let ind_out = Hashtbl.create 16 in
  let ind_from = Hashtbl.create 16 in
  let addw tbl k v =
    Hashtbl.replace tbl k (v + Option.value (Hashtbl.find_opt tbl k) ~default:0)
  in
  Array.iter
    (fun d ->
      Hashtbl.iter
        (fun k (st : stub) ->
          addw claim k st.st_weight;
          addw ind_out k st.st_ind_out;
          Hashtbl.iter (fun _ c -> addw ind_from k c) st.st_ind_from)
        d.d_stubs;
      Hashtbl.iter
        (fun dst b ->
          List.iter (fun (slot, w) -> addw claim (dst, slot) w) b.b_decs;
          List.iter (fun (k, c) -> addw ind_from k c) b.b_inds)
        d.d_out)
    t.nodes;
  let problems = ref [] in
  for node = 0 to p - 1 do
    Hashtbl.iter
      (fun slot w ->
        let held = Option.value (Hashtbl.find_opt claim (node, slot)) ~default:0 in
        if !w <> held then
          problems :=
            Printf.sprintf "scion (%d,%d): owner %d vs held %d" node slot !w
              held
            :: !problems;
        Hashtbl.remove claim (node, slot))
      t.nodes.(node).d_scion
  done;
  (* claims with no scion entry must net to zero *)
  Hashtbl.iter
    (fun (n, s) held ->
      if held <> 0 then
        problems :=
          Printf.sprintf "scion (%d,%d): owner 0 vs held %d" n s held
          :: !problems)
    claim;
  Hashtbl.iter
    (fun (n, s) out ->
      let inc = Option.value (Hashtbl.find_opt ind_from (n, s)) ~default:0 in
      if out <> inc then
        problems :=
          Printf.sprintf "indirection (%d,%d): out %d vs from %d" n s out inc
          :: !problems;
      Hashtbl.remove ind_from (n, s))
    ind_out;
  Hashtbl.iter
    (fun (n, s) inc ->
      if inc <> 0 then
        problems :=
          Printf.sprintf "indirection (%d,%d): out 0 vs from %d" n s inc
          :: !problems)
    ind_from;
  List.rev !problems

(* Node-local structural audit for crash recovery. Unlike [audit] it
   needs no global quiescence: it checks only invariants that must hold
   on one node regardless of in-flight traffic, so the recovery manager
   can run it the moment a restarted node rejoins. Scion weights can
   dip negative only transiently in the middle of a debit exchange; a
   node that just restarted holds no half-applied debit, so negative
   reads are flagged here. *)
let recovery_audit t ~node =
  let d = t.nodes.(node) in
  let problems = ref [] in
  let say fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  Hashtbl.iter
    (fun (n, s) (st : stub) ->
      if st.st_weight < 0 then
        say "node %d stub (%d,%d): negative weight %d" node n s st.st_weight;
      if st.st_ind_out < 0 then
        say "node %d stub (%d,%d): negative indirections out %d" node n s
          st.st_ind_out;
      Hashtbl.iter
        (fun backer c ->
          if c <= 0 then
            say "node %d stub (%d,%d): empty indirection record from %d" node
              n s backer)
        st.st_ind_from)
    d.d_stubs;
  Hashtbl.iter
    (fun slot w ->
      if !w < 0 then say "node %d scion %d: negative weight %d" node slot !w)
    d.d_scion;
  List.rev !problems

(* --- test instrumentation ----------------------------------------- *)

module Testing = struct
  (* Deliberate corruption for tests that prove the audit notices;
     never called by the collector itself. *)
  let forge_stub_weight t ~node ~canon delta =
    match Hashtbl.find_opt t.nodes.(node).d_stubs (key canon) with
    | Some s -> s.st_weight <- s.st_weight + delta
    | None -> invalid_arg "Dgc.Testing.forge_stub_weight: no stub"
end
