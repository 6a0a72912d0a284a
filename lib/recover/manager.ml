(* Per-node crash recovery over the engine's crash mechanism.

   The model is pessimistic logging against a simulated stable store
   (one {!Store} per node):

   - The reliable layer's journal hooks mirror every sequence-state
     mutation (send, queue, ack, in-order release) into the owning
     node's journal synchronously. The persisted view therefore always
     equals the crash-time view, which is why a crash does NOT reset the
     reliable channel state: the in-memory tables double as the
     restored-from-journal state, and the journal itself is pure
     byte-accounting plus audit cursors.

   - Every inbox delivery is logged (the delivery log), and every
     dispatch records its position (the dispatch log). A checkpoint —
     taken per node on a staggered timer, at an application safe point —
     stores the app snapshot and prunes both logs.

   - A crash therefore loses exactly: app state since the checkpoint,
     delivered-but-undispatched inbox contents, queued thunks, and open
     aggregation buffers (already sequenced into the reliable layer, so
     retransmission re-sends them).

   Recovery, at the scheduled restart instant: restore the snapshot
   (faulting it from the cold tier if evicted), re-run the dispatch log
   in recorded order with ALL sends from the node suppressed (each
   original send is already in the journaled reliable state, or in the
   delivery log for loopbacks — re-emitting would duplicate), rebuild
   the inbox from the undispatched delivery-log entries at their
   original arrival times, and restart the node as a new incarnation.
   Replay work is charged to the node clock, so recovery has a
   measurable simulated wall-clock cost.

   Crash instants come from the crash specs re-timed through engine
   decision points ("recover.crash.jitter" / "recover.restart.jitter"),
   and the resulting windows are installed into the live fault state
   before any traffic — so a recorded schedule replays the crash
   bit-identically, and in-flight packets of the crashed node are
   dropped deterministically by the fabric.

   Application contract: handlers do all the work (no [Engine.post]
   from handlers — run-queue thunks are not logged); bootstrap thunks
   only send. [a_snapshot] returns [None] when the node is not at a
   safe point (typically: run queue non-empty), and the checkpoint
   timer simply retries next period. *)

module Engine = Machine.Engine
module Node = Machine.Node
module Am = Machine.Am
module Reliable = Machine.Reliable

type app = {
  a_snapshot : int -> bytes option;
  a_restore : int -> bytes -> unit;
  a_reset : int -> unit;
}

type crash_spec = {
  cs_node : int;
  cs_at : Simcore.Time.t;
  cs_down_ns : int;
  cs_jitter_ns : int;
}

(* Checkpoint period and restart cost: a fixed part (reboot, store
   open) plus the checkpoint read-back bandwidth. *)
let checkpoint_every_ns = 200_000
let restore_fixed_ns = 20_000
let restore_ns_per_byte = 2

(* One delivery-log entry: a message that reached the node's inbox. *)
type dentry = { de_am : Am.t; de_arrival : Simcore.Time.t }

type nstate = {
  store : Store.t;
  pending : dentry Queue.t;  (** delivered, not yet dispatched *)
  mutable done_log : dentry list;  (** dispatched since ckpt, newest first *)
  mutable replaying : bool;
  mutable has_ckpt : bool;
  mutable ckpt_cursors : (int, int) Hashtbl.t;  (** src -> released cursor *)
  cursors : (int, int) Hashtbl.t;  (** live journal released cursors *)
  mutable pending_restart : bool;
  mutable recoveries_ns : int;  (** total simulated recovery wall-clock *)
  mutable dirty : bool;  (** state changed since the last snapshot *)
  mutable ckpt_armed : bool;  (** a checkpoint timer is in the queue *)
}

type t = {
  eng : Engine.t;
  app : app;
  ns : nstate array;
  c_crashes : Simcore.Stats.cell;
  c_restarts : Simcore.Stats.cell;
  c_ckpts : Simcore.Stats.cell;
  c_ckpt_bytes : Simcore.Stats.cell;
  c_ckpt_deferred : Simcore.Stats.cell;
  c_replayed : Simcore.Stats.cell;
  c_recovery_ns : Simcore.Stats.cell;
  c_suppressed : Simcore.Stats.cell;
  c_unlogged : Simcore.Stats.cell;
  c_inbox_rebuilt : Simcore.Stats.cell;
}

let store t i = t.ns.(i).store
let recovery_ns t i = t.ns.(i).recoveries_ns

(* ~16 B of log metadata per delivery-log entry, 8 per cursor record. *)
let dentry_bytes (am : Am.t) = am.Am.size_bytes + 16
let cursor_bytes = 8

(* --- checkpointing --- *)

(* Returns whether a snapshot was actually taken (the application may
   refuse when the node is not at a safe point). *)
let checkpoint t i =
  let ns = t.ns.(i) in
  match t.app.a_snapshot i with
  | None ->
      Simcore.Stats.bump t.c_ckpt_deferred;
      false
  | Some img ->
      Store.put ns.store ~key:"ckpt" img;
      ns.has_ckpt <- true;
      ns.ckpt_cursors <- Hashtbl.copy ns.cursors;
      ns.done_log <- [];
      (* The snapshot subsumes everything dispatched and every journal
         entry; only the still-pending deliveries must stay logged. *)
      Store.truncate ns.store ~log:"dispatch";
      Store.truncate ns.store ~log:"journal";
      Store.truncate ns.store ~log:"delivery";
      Queue.iter
        (fun de ->
          Store.append ns.store ~log:"delivery" ~bytes:(dentry_bytes de.de_am))
        ns.pending;
      Simcore.Stats.bump t.c_ckpts;
      Simcore.Stats.bump_n t.c_ckpt_bytes (Bytes.length img);
      true

(* --- the engine hooks --- *)

(* Arm a checkpoint for node [i] at [at] (plus a stagger jitter drawn
   at a decision point) unless one is already pending. *)
let rec arm_ckpt t i ~at =
  let ns = t.ns.(i) in
  if not ns.ckpt_armed then begin
    ns.ckpt_armed <- true;
    let jitter =
      Engine.decide t.eng "recover.ckpt.stagger"
        (1 + (checkpoint_every_ns / 4))
    in
    Engine.schedule_on t.eng ~node:i ~time:(at + jitter) (ckpt_tick t i)
  end

(* Checkpoints are activity-driven: a delivery or dispatch marks the
   node dirty and arms a timer one period out, so safe-points align
   with the node's own event stream instead of a global engine clock.
   A down node skips its tick — snapshotting wiped state would lose the
   replay logs — and re-arms from its first post-restart activity. *)
and ckpt_tick t i () =
  let ns = t.ns.(i) in
  ns.ckpt_armed <- false;
  if Engine.node_down t.eng i then ()
  else if ns.dirty then
    if checkpoint t i then ns.dirty <- false
    else
      (* Not at a safe point: retry a period later. *)
      arm_ckpt t i ~at:(Engine.now t.eng + checkpoint_every_ns)

let on_deliver t ~dst ~arrival am =
  let ns = t.ns.(dst) in
  Queue.push { de_am = am; de_arrival = arrival } ns.pending;
  Store.append ns.store ~log:"delivery" ~bytes:(dentry_bytes am);
  if not (Engine.node_down t.eng dst) then begin
    ns.dirty <- true;
    arm_ckpt t dst ~at:(arrival + checkpoint_every_ns)
  end

(* Pull the entry for [am] out of the pending set. Dispatch order
   usually matches delivery order, so the head check almost always
   hits; inbox tie-breaks can reorder same-instant messages, hence the
   rebuild fallback. Physical equality is the key: every send allocates
   a fresh [Am.t], so the record's identity names the message. *)
let take_pending ns am =
  match Queue.peek_opt ns.pending with
  | Some de when de.de_am == am -> Some (Queue.pop ns.pending)
  | _ ->
      let found = ref None in
      let keep = Queue.create () in
      Queue.iter
        (fun de ->
          if !found = None && de.de_am == am then found := Some de
          else Queue.push de keep)
        ns.pending;
      Queue.clear ns.pending;
      Queue.transfer keep ns.pending;
      !found

let on_dispatch t ~node am =
  let ns = t.ns.(node) in
  if not ns.replaying then
    match take_pending ns am with
    | Some de ->
        ns.done_log <- de :: ns.done_log;
        Store.append ns.store ~log:"dispatch" ~bytes:cursor_bytes;
        ns.dirty <- true;
        arm_ckpt t node
          ~at:(Node.now (Engine.node t.eng node) + checkpoint_every_ns)
    | None ->
        (* A message the delivery log never saw (e.g. injected behind
           the manager's back). It cannot be replayed after a crash. *)
        Simcore.Stats.bump t.c_unlogged

let on_send t ~src =
  if t.ns.(src).replaying then begin
    Simcore.Stats.bump t.c_suppressed;
    false
  end
  else true

let any_restart_pending t =
  Array.exists (fun ns -> ns.pending_restart) t.ns

(* --- crash and recovery --- *)

let restart t i =
  let ns = t.ns.(i) in
  let node = Engine.node t.eng i in
  let t0 = Node.now node in
  (* 1. Restore the last checkpoint (cold boot if none was ever taken:
     the dispatch log then replays from the beginning of time). *)
  (if ns.has_ckpt then
     match Store.get ns.store ~key:"ckpt" with
     | Some img ->
         t.app.a_restore i img;
         Node.charge_ns node
           (restore_fixed_ns
           + (Bytes.length img * restore_ns_per_byte))
     | None -> assert false
   else Node.charge_ns node restore_fixed_ns);
  (* 2. Replay the dispatch log in recorded order, sends suppressed. *)
  ns.replaying <- true;
  List.iter
    (fun de ->
      Engine.redispatch t.eng ~node:i de.de_am;
      Simcore.Stats.bump t.c_replayed)
    (List.rev ns.done_log);
  ns.replaying <- false;
  (* 3. Rebuild the inbox from delivered-but-undispatched entries at
     their original arrival times (all in the past by now, so the first
     wake polls them straight out). *)
  Queue.iter
    (fun de ->
      Node.inbox_push node ~arrival:de.de_arrival de.de_am;
      Simcore.Stats.bump t.c_inbox_rebuilt)
    ns.pending;
  (* 4. Up again, as a fresh incarnation. *)
  Engine.restart_node t.eng i;
  ns.pending_restart <- false;
  Simcore.Stats.bump t.c_restarts;
  let spent = Node.now node - t0 in
  ns.recoveries_ns <- ns.recoveries_ns + spent;
  Simcore.Stats.bump_n t.c_recovery_ns spent;
  (* The replayed logs want pruning: a fresh checkpoint one period out
     resets the next crash's replay cost. *)
  ns.dirty <- true;
  arm_ckpt t i ~at:(Node.now node + checkpoint_every_ns)

let crash t i ~restart_at =
  let ns = t.ns.(i) in
  let node = Engine.node t.eng i in
  (* The node's optimistic clock may have run past the scripted restart
     instant; recovery then starts as soon as the clock allows. *)
  let ra = max restart_at (max (Engine.now t.eng) (Node.now node) + 1) in
  ns.pending_restart <- true;
  Engine.crash_node t.eng i ~restart_at:ra;
  t.app.a_reset i;
  Simcore.Stats.bump t.c_crashes;
  Engine.schedule_on t.eng ~node:i ~time:ra (fun () -> restart t i)

(* --- wiring --- *)

let install_journal t rel =
  let journal_of n = t.ns.(n).store in
  Reliable.set_journal rel
    (Some
       {
         Reliable.j_sent =
           (fun ~src ~dst:_ ~seq:_ (am : Am.t) ->
             Store.append (journal_of src) ~log:"journal"
               ~bytes:(Reliable.frame_bytes + am.Am.size_bytes));
         j_queued =
           (fun ~src ~dst:_ (am : Am.t) ->
             Store.append (journal_of src) ~log:"journal"
               ~bytes:am.Am.size_bytes);
         j_acked =
           (fun ~src ~dst:_ ~base:_ ->
             Store.append (journal_of src) ~log:"journal" ~bytes:cursor_bytes);
         j_released =
           (fun ~src ~dst ~expected ->
             Store.append (journal_of dst) ~log:"journal" ~bytes:cursor_bytes;
             Hashtbl.replace t.ns.(dst).cursors src expected);
       })

let attach eng ~app ~crashes () =
  if not (Engine.faults_active eng) then
    invalid_arg
      "Manager.attach: crash recovery requires a fault plan (pass a plan \
       with the crash specs' nodes so the reliable layer is live)";
  let n = Engine.node_count eng in
  List.iter
    (fun cs ->
      if cs.cs_node < 0 || cs.cs_node >= n then
        invalid_arg "Manager.attach: crash spec names an unknown node";
      if cs.cs_at <= 0 then
        invalid_arg "Manager.attach: crash instant must be positive";
      if cs.cs_down_ns < 1 then
        invalid_arg "Manager.attach: down window must be non-empty";
      if cs.cs_jitter_ns < 0 then
        invalid_arg "Manager.attach: negative jitter")
    crashes;
  let stats = Engine.stats eng in
  let t =
    {
      eng;
      app;
      ns =
        Array.init n (fun _ ->
            {
              store = Store.create ();
              pending = Queue.create ();
              done_log = [];
              replaying = false;
              has_ckpt = false;
              ckpt_cursors = Hashtbl.create 8;
              cursors = Hashtbl.create 8;
              pending_restart = false;
              recoveries_ns = 0;
              dirty = false;
              ckpt_armed = false;
            });
      c_crashes = Simcore.Stats.counter stats "recover.crashes";
      c_restarts = Simcore.Stats.counter stats "recover.restarts";
      c_ckpts = Simcore.Stats.counter stats "recover.ckpts";
      c_ckpt_bytes = Simcore.Stats.counter stats "recover.ckpt_bytes";
      c_ckpt_deferred = Simcore.Stats.counter stats "recover.ckpt_deferred";
      c_replayed = Simcore.Stats.counter stats "recover.replayed";
      c_recovery_ns = Simcore.Stats.counter stats "recover.recovery_ns";
      c_suppressed = Simcore.Stats.counter stats "recover.suppressed_sends";
      c_unlogged = Simcore.Stats.counter stats "recover.dispatch_unlogged";
      c_inbox_rebuilt = Simcore.Stats.counter stats "recover.inbox_rebuilt";
    }
  in
  install_journal t (Option.get (Engine.reliable eng));
  Engine.set_recovery_hooks eng
    (Some
       {
         Engine.rc_deliver = (fun ~dst ~arrival am -> on_deliver t ~dst ~arrival am);
         rc_dispatch = (fun ~node am -> on_dispatch t ~node am);
         rc_send = (fun ~src -> on_send t ~src);
       });
  (* Re-time the scripted crashes through recorded decision points and
     install the resulting windows into the live fault state BEFORE any
     traffic: the fabric then drops the crashed node's in-flight packets
     deterministically under replay. *)
  let timed =
    List.map
      (fun cs ->
        let jc =
          Engine.decide eng "recover.crash.jitter"
            (cs.cs_jitter_ns + 1)
        in
        let jr =
          Engine.decide eng "recover.restart.jitter"
            (cs.cs_jitter_ns + 1)
        in
        let at = cs.cs_at + jc in
        (cs, at, at + cs.cs_down_ns + jr))
      crashes
  in
  (match Engine.faults_state eng with
  | Some f ->
      Network.Faults.set_crashes f
        (List.map
           (fun (cs, at, ra) ->
             { Network.Faults.node = cs.cs_node; from_ns = at; until_ns = ra })
           timed)
  | None -> assert false (* faults_active checked above *));
  List.iter
    (fun (cs, at, ra) ->
      Engine.schedule_on eng ~node:cs.cs_node ~time:at (fun () ->
          crash t cs.cs_node ~restart_at:ra))
    timed;
  (* Checkpoint 0: persist the pristine state so the very first crash
     already has something to restore. Later checkpoints are activity-
     driven — the first delivery or dispatch after a snapshot arms a
     per-node timer one period (plus a stagger) out. *)
  for i = 0 to n - 1 do
    ignore (checkpoint t i : bool)
  done;
  t

let detach t =
  Engine.set_recovery_hooks t.eng None;
  match Engine.reliable t.eng with
  | Some rel -> Reliable.set_journal rel None
  | None -> ()

(* --- invariants --- *)

let audit t =
  let bad = ref [] in
  let say fmt = Format.kasprintf (fun s -> bad := s :: !bad) fmt in
  Array.iteri
    (fun i ns ->
      let down = Engine.node_down t.eng i in
      (* One live incarnation per node: crash count runs exactly one
         ahead of the incarnation number while (and only while) the
         node is down. *)
      let lag = Engine.node_crash_count t.eng i - Engine.node_incarnation t.eng i in
      if lag <> (if down then 1 else 0) then
        say "node %d: incarnation accounting off (crashes=%d incarnation=%d down=%b)"
          i
          (Engine.node_crash_count t.eng i)
          (Engine.node_incarnation t.eng i)
          down;
      if down then begin
        let node = Engine.node t.eng i in
        if not (Node.is_idle node) then say "down node %d is not idle" i;
        if Node.inbox_size node <> 0 then
          say "down node %d holds %d inbox messages" i (Node.inbox_size node);
        if Node.runq_size node <> 0 then
          say "down node %d holds %d queued thunks" i (Node.runq_size node)
      end;
      (* The journal's release cursor may never fall behind the cursor
         the last checkpoint recorded. *)
      Hashtbl.iter
        (fun src at_ckpt ->
          let live =
            Option.value (Hashtbl.find_opt ns.cursors src) ~default:0
          in
          if live < at_ckpt then
            say "node %d: journal cursor for src %d behind checkpoint (%d < %d)"
              i src live at_ckpt)
        ns.ckpt_cursors)
    t.ns;
  List.rev !bad

let audit_quiescent t =
  let bad = ref (audit t) in
  let say fmt = Format.kasprintf (fun s -> bad := s :: !bad) fmt in
  if any_restart_pending t then say "quiescent with a restart still pending";
  Array.iteri
    (fun i ns ->
      if Engine.node_down t.eng i then say "quiescent with node %d down" i;
      (* Every message the protocol acknowledged and released must have
         hit the journal: at quiescence the journal cursor equals the
         receiver's expected-sequence cursor on every channel. *)
      match Engine.reliable t.eng with
      | None -> ()
      | Some rel ->
          for src = 0 to Array.length t.ns - 1 do
            if src <> i then begin
              let expected = Reliable.rx_expected rel ~src ~dst:i in
              let logged =
                Option.value (Hashtbl.find_opt ns.cursors src) ~default:0
              in
              if expected <> logged then
                say
                  "node %d: %d messages from %d acked but %d journaled \
                   (acked-but-unlogged)"
                  i expected src logged
            end
          done)
    t.ns;
  List.rev !bad
