type delivery_mode = Polling | Interrupt

type config = {
  cost : Cost_model.t;
  fabric : Network.Fabric.config;
  delivery : delivery_mode;
  seed : int;
  faults : Network.Faults.plan option;
  coalesce : Coalesce.config option;
}

let default_config =
  {
    cost = Cost_model.default;
    fabric = Network.Fabric.default_config;
    delivery = Polling;
    seed = 42;
    faults = None;
    coalesce = None;
  }

type event =
  | Wake of int
  | Frame_rx of { src : int; dst : int; frame : Reliable.frame }
  | Rel_tick of { src : int; dst : int }  (** retransmit timer *)
  | Ack_tick of { me : int; peer : int }  (** delayed standalone ack *)
  | Co_flush of { src : int; dst : int }  (** aggregation age deadline *)
  | Co_credit of { src : int; dst : int }
      (** a flushed batch landed: return its flow-control credit *)
  | Timer of { node : int; fn : unit -> unit }
      (** a timer owned by [node]: a parallel run executes it on the
          domain that owns the node. [node = -1] is an engine-level
          timer (periodic services: gossip, DGC sweeps, migration
          policies) that may touch every node; it has no owning domain,
          so [run_parallel] refuses an engine that ever armed one. The
          thunk decides for itself whether to re-arm. *)

(* Crash-recovery instrumentation (installed by Recover.Manager). The
   hooks see every delivery, dispatch and send, so a manager can keep a
   stable-store delivery log and suppress the re-sends a replaying
   handler would otherwise duplicate onto the wire. *)
type recovery_hooks = {
  rc_deliver : dst:int -> arrival:Simcore.Time.t -> Am.t -> unit;
      (** a message landed in [dst]'s inbox *)
  rc_dispatch : node:int -> Am.t -> unit;
      (** a message is about to run its handler on [node] *)
  rc_send : src:int -> bool;
      (** consulted before every [send_am] from [src]; [false] swallows
          the send entirely (log replay: the original send's effects are
          already in the journaled reliable state or the delivery log) *)
}

type handler = {
  h_category : Am.category;
  h_name : string;
  h_fn : t -> Node.t -> Am.t -> unit;
  h_sent : Simcore.Stats.cell;  (** cached "am.sent.<category>" counter *)
}

and t = {
  config : config;
  topo : Network.Topology.t;
  fabric : unit Network.Fabric.t;
      (** the fabric only computes times: a packet carries its size, not
          its payload, which rides the event queue instead *)
  nodes : Node.t array;
  events : event Simcore.Event_queue.t;
  mutable handlers : handler array;
  mutable handler_count : int;
  stats : Simcore.Stats.t;
  rng : Simcore.Rng.t;
  mutable vnow : Simcore.Time.t;
  mutable observer : (observation -> unit) option;
  rel : Reliable.t option;  (** live iff the fault plan is non-trivial *)
  co : coal option;  (** live iff [config.coalesce] is set *)
  mutable piggyback : (src:int -> dst:int -> Am.t list) option;
      (** flush-time hook: control AMs (DGC decrements, …) to append to
          a departing batch instead of sending dedicated packets *)
  mutable decision : (string -> int -> int) option;
      (** schedule-exploration hook: [decide tag bound] picks a value in
          [0, bound) at a named decision point; [None] (and a pick of 0)
          is the unperturbed baseline *)
  mutable tie_break_set : bool;
  mutable engine_timer_set : bool;  (** {!schedule_at} was ever called *)
  mutable recovery : recovery_hooks option;
  mutable par : par option;  (** live only inside {!run_parallel} *)
  mutable evcount : int;  (** events processed by sequential [run] *)
  (* crash-recovery state: a down node processes no events until its
     scheduled restart; incarnations count restarts (0 = original) *)
  down : bool array;
  incarnation : int array;
  restart_due : Simcore.Time.t array;
  node_crashes : int array;
  c_retransmit : Simcore.Stats.cell;
  c_dup_discard : Simcore.Stats.cell;
  c_ack : Simcore.Stats.cell;
  c_down_drop : Simcore.Stats.cell;
  c_post_refused : Simcore.Stats.cell;
}

(* The aggregation layer batches whatever the transport underneath it
   carries: bare AMs fault-free, sequenced protocol frames under a
   fault plan. *)
and coal = Co_data of Am.t Coalesce.t | Co_framed of Reliable.frame Coalesce.t

(* A cross-node delivery deferred to the next window boundary of a
   parallel run. The stamp (x_time, x_src, x_seq) is a canonical sort
   key: x_seq counts the source node's deferred sends in its (count-
   invariant) execution order, so the boundary application order — and
   with it every inbox seq and wake — is identical for any domain
   count. *)
and xitem = {
  x_time : Simcore.Time.t;  (* arrival *)
  x_src : int;
  x_seq : int;
  x_dst : int;
  x_pay : Am.t;  (* headed straight for the destination inbox *)
}

(* Per-run parallel state. Arrays indexed per domain use a [pstride]
   padding so no two domains share a cache line; cross-domain reads of
   the plain slots happen only across barrier phases (the barrier is the
   fence). *)
and par = {
  p_domains : int;
  p_dom_of : int array;  (* node -> owning domain *)
  p_queues : event Simcore.Event_queue.t array;  (* per domain *)
  p_boxes : xitem Simcore.Spsc.t array array;  (* [src_dom].[dst_dom] *)
  p_pending : xitem list array;  (* same-domain deferrals, newest first *)
  p_barrier : Simcore.Barrier.t;
  p_lookahead : Simcore.Time.t;
  p_mins : Simcore.Time.t array;  (* padded: domain d at [d * pstride] *)
  p_vnow : Simcore.Time.t array;  (* padded *)
  p_horizon : Simcore.Time.t array;  (* padded; current window end *)
  p_slices : int array;  (* padded *)
  p_events : int array;  (* padded *)
  p_send_seq : int array;  (* per node: deferred-send stamp *)
  p_obs_seq : int array;  (* per node: observation stamp *)
  p_obs : (Simcore.Time.t * int * int * observation) list array;
      (* per domain, newest first: (time, node, seq, obs) *)
  p_errflag : int array;
      (* padded; 1 = this domain holds an error. Published by its owner
         in the boundary phase (before barrier A) and read by everyone
         after it, so the stop verdict is computed from barrier-frozen
         data — an error raised *inside* a window is only published at
         the next boundary, never mid-round, and every domain reaches
         the same verdict in the same round. *)
  p_slices_pub : int array;
      (* padded; boundary-published copy of p_slices, frozen for the
         round's verdict like p_errflag *)
  p_err : (exn * Printexc.raw_backtrace) option array;  (* per domain *)
  mutable p_running : bool;
}

and observation =
  | Obs_deliver of { time : Simcore.Time.t; src : int; dst : int }
  | Obs_slice of { node : int; t_start : Simcore.Time.t; t_end : Simcore.Time.t }
  | Obs_batch of { time : Simcore.Time.t; src : int; dst : int; frames : int }
  | Obs_crash of { time : Simcore.Time.t; node : int; incarnation : int }
      (** the named incarnation died *)
  | Obs_restart of { time : Simcore.Time.t; node : int; incarnation : int }
      (** the node came back as the named (new) incarnation *)

(* A cross-node effect was produced inside the window it should have
   been safely beyond: the conservative-lookahead invariant is broken
   (a fabric config whose minimum latency understates some real path).
   Carries which shard violated the window, not just a string. *)
exception
  Lookahead_violation of {
    domain : int;
    node : int;
    arrival : Simcore.Time.t;
    horizon : Simcore.Time.t;
  }

let () =
  Printexc.register_printer (function
    | Lookahead_violation { domain; node; arrival; horizon } ->
        Some
          (Printf.sprintf
             "Engine.Lookahead_violation { domain = %d; node = %d; arrival = \
              %dns; horizon = %dns }"
             domain node arrival horizon)
    | _ -> None)

let create ?(config = default_config) ~nodes:n () =
  if n < 1 then invalid_arg "Engine.create: need at least one node";
  let topo = Network.Topology.square_for n in
  (* An all-zero plan is the same as no plan at all: the fabric and the
     delivery path below stay bit-identical to the fault-free build. *)
  let faults =
    match config.faults with
    | Some p when not (Network.Faults.is_fault_free p) -> Some p
    | Some _ | None -> None
  in
  let stats = Simcore.Stats.create () in
  {
    config;
    topo;
    fabric = Network.Fabric.create ~config:config.fabric ?faults topo;
    nodes = Array.init n (fun id -> Node.create ~id);
    events = Simcore.Event_queue.create ();
    handlers = [||];
    handler_count = 0;
    stats;
    rng = Simcore.Rng.create ~seed:config.seed;
    vnow = Simcore.Time.zero;
    observer = None;
    rel =
      (match faults with
      | Some _ -> Some (Reliable.create ~nodes:n ())
      | None -> None);
    co =
      (match config.coalesce with
      | None -> None
      | Some c -> (
          match faults with
          | Some _ -> Some (Co_framed (Coalesce.create ~config:c ~nodes:n ()))
          | None -> Some (Co_data (Coalesce.create ~config:c ~nodes:n ()))));
    piggyback = None;
    decision = None;
    tie_break_set = false;
    engine_timer_set = false;
    recovery = None;
    par = None;
    evcount = 0;
    down = Array.make n false;
    incarnation = Array.make n 0;
    restart_due = Array.make n 0;
    node_crashes = Array.make n 0;
    c_retransmit = Simcore.Stats.counter stats "reliable.retransmit";
    c_dup_discard = Simcore.Stats.counter stats "reliable.dup_discard";
    c_ack = Simcore.Stats.counter stats "reliable.ack";
    c_down_drop = Simcore.Stats.counter stats "recover.dropped_while_down";
    c_post_refused = Simcore.Stats.counter stats "recover.posts_refused";
  }

let config t = t.config
let cost t = t.config.cost
let topology t = t.topo
let stats t = t.stats
let rng t = t.rng
let node_count t = Array.length t.nodes
let node t i = t.nodes.(i)
let nodes t = t.nodes
let reliable t = t.rel
let faults_active t = Option.is_some t.rel
let faults_state t = Network.Fabric.faults_state t.fabric
let node_down t i = t.down.(i)
let node_incarnation t i = t.incarnation.(i)
let node_crash_count t i = t.node_crashes.(i)
let set_recovery_hooks t h = t.recovery <- h

let reliable_in_flight t =
  match t.rel with Some rel -> Reliable.in_flight rel | None -> 0

let coalesce_buffered t =
  match t.co with
  | Some (Co_data c) -> Coalesce.buffered c
  | Some (Co_framed c) -> Coalesce.buffered c
  | None -> 0

let coalesce_stats t =
  match t.co with
  | Some (Co_data c) -> Some (Coalesce.stats c)
  | Some (Co_framed c) -> Some (Coalesce.stats c)
  | None -> None

let set_piggyback_source t hook = t.piggyback <- hook
let set_decision_source t hook = t.decision <- hook
let set_tie_break t choose =
  (* Engine events carry no per-channel ordering of their own (frame
     arrivals re-sequence in the reliable layer), so every permutation
     of a same-time candidate set is a legal schedule. *)
  t.tie_break_set <- Option.is_some choose;
  Simcore.Event_queue.set_tie_break t.events
    (Option.map (fun f evs -> f (Array.length evs)) choose)

let decide t tag bound =
  match t.decision with
  | Some f when bound > 1 -> f tag bound
  | Some _ | None -> 0

(* --- parallel-run plumbing ---------------------------------------- *)

(* Padding stride for per-domain scalar slots: 8 words = 64 bytes. *)
let pstride = 8

(* The event sink: the engine's single queue sequentially, the calling
   domain's private queue inside a parallel run. Every event a domain
   creates targets work it owns (cross-node effects defer through the
   boundary mailboxes instead), so routing by calling domain is exact. *)
let add_event t ~time ev =
  match t.par with
  | Some p when p.p_running ->
      Simcore.Event_queue.add p.p_queues.(Simcore.Domain_ctx.current ()) ~time ev
  | _ -> Simcore.Event_queue.add t.events ~time ev

(* Virtual now as seen by the calling domain. *)
let now_cur t =
  match t.par with
  | Some p when p.p_running -> p.p_vnow.(Simcore.Domain_ctx.current () * pstride)
  | _ -> t.vnow

(* Observation emission. A parallel run buffers per domain under the
   canonical stamp (time, producing node, per-node seq) and replays the
   merged order into the observer at the end; the stamp is a total order
   (per-node seqs never collide) and count-invariant (each node's
   emission order is), so the Timeline hash is too. Nothing is buffered
   or stamped when no observer is attached. *)
let emit_obs t ~time ~node obs =
  match t.observer with
  | None -> ()
  | Some f -> (
      match t.par with
      | Some p when p.p_running ->
          let d = Simcore.Domain_ctx.current () in
          let s = p.p_obs_seq.(node) in
          p.p_obs_seq.(node) <- s + 1;
          p.p_obs.(d) <- (time, node, s, obs) :: p.p_obs.(d)
      | _ -> f obs)

let quiescent t =
  Array.for_all Node.is_idle t.nodes
  && reliable_in_flight t = 0
  && coalesce_buffered t = 0

let schedule_at t ~time fn =
  if Option.is_some t.par then
    invalid_arg "Engine.schedule_at: engine-level timer during a parallel run";
  t.engine_timer_set <- true;
  add_event t ~time:(max time (now_cur t)) (Timer { node = -1; fn })

let schedule_on t ~node ~time fn =
  if node < 0 || node >= Array.length t.nodes then
    invalid_arg "Engine.schedule_on: bad node";
  add_event t ~time:(max time (now_cur t)) (Timer { node; fn })

let packets_dropped t = Network.Fabric.packets_dropped t.fabric
let packets_duplicated t = Network.Fabric.packets_duplicated t.fabric
let crash_dropped t = Network.Fabric.crash_dropped t.fabric

let charge t n instructions =
  Node.charge_ns n (Cost_model.time t.config.cost instructions)

let register_handler t category ~name fn =
  let h_sent =
    Simcore.Stats.counter t.stats ("am.sent." ^ Am.category_name category)
  in
  let h = { h_category = category; h_name = name; h_fn = fn; h_sent } in
  let id = t.handler_count in
  if id = Array.length t.handlers then begin
    let handlers' = Array.make (max 8 (2 * id)) h in
    Array.blit t.handlers 0 handlers' 0 id;
    t.handlers <- handlers'
  end;
  t.handlers.(id) <- h;
  t.handler_count <- t.handler_count + 1;
  id

let handler t id =
  if id < 0 || id >= t.handler_count then invalid_arg "Engine: unknown handler";
  t.handlers.(id)

let wake t node ~time =
  (* A down node is deaf to wakeups: clearing its idle flag here would
     strand it busy-but-unscheduled forever (the run loop discards Wake
     events for down nodes). Whatever queued meanwhile is drained by the
     wake [restart_node] issues. *)
  if (not t.down.(Node.id node)) && Node.is_idle node then begin
    Node.set_idle node false;
    let time = max time (Node.now node) in
    add_event t ~time (Wake (Node.id node))
  end

(* Hand a message to the destination node's inbox, waking it if needed.
   The tail of both delivery paths (direct and reliable). *)
let deliver_local t ~dst ~arrival am =
  (match t.recovery with
  | Some h -> h.rc_deliver ~dst ~arrival am
  | None -> ());
  let dst_node = t.nodes.(dst) in
  Node.inbox_push dst_node ~arrival am;
  let wake_time = max arrival (Node.now dst_node) in
  if Node.is_idle dst_node then begin
    Node.set_idle dst_node false;
    Node.set_next_wake dst_node wake_time;
    add_event t ~time:wake_time (Wake dst)
  end
  else if wake_time < Node.next_wake dst_node then begin
    (* The node is waiting for a later event; this message deserves an
       earlier look. Duplicate wakes are harmless. *)
    Node.set_next_wake dst_node wake_time;
    add_event t ~time:wake_time (Wake dst)
  end

(* Defer a cross-node effect to the next window boundary of a parallel
   run, under the canonical (arrival, src, per-src seq) stamp:
   conservative lookahead guarantees [arrival] is at or past the
   horizon, so deferral never reorders anything a node could already
   have seen — it only fixes the application order to one that is
   independent of the domain count. *)
let defer p ~src ~dst ~arrival pay =
  let sd = Simcore.Domain_ctx.current () in
  let horizon = p.p_horizon.(sd * pstride) in
  if arrival < horizon then
    raise (Lookahead_violation { domain = sd; node = src; arrival; horizon });
  let s = p.p_send_seq.(src) in
  p.p_send_seq.(src) <- s + 1;
  let item = { x_time = arrival; x_src = src; x_seq = s; x_dst = dst; x_pay = pay } in
  let dd = p.p_dom_of.(dst) in
  if sd = dd then p.p_pending.(sd) <- item :: p.p_pending.(sd)
  else Simcore.Spsc.push p.p_boxes.(sd).(dd) item

(* Route a fabric delivery: a straight inbox hand-off sequentially, a
   deferred boundary item inside a parallel run. *)
let deliver_remote t ~src ~dst ~arrival am =
  match t.par with
  | Some p when p.p_running -> defer p ~src ~dst ~arrival am
  | _ -> deliver_local t ~dst ~arrival am

(* --- reliable-delivery path (fault plan active) --- *)

(* [control] marks frames the interface emits at engine-event times
   (acks, retransmissions, window-released backlog): they bypass the
   fabric's call-order injection/FIFO clamps, which would serialise them
   behind data that an optimistic node slice already stamped with
   virtual-future times. First sends from a node slice are ordinary
   clamped traffic. *)
let transmit_frame t ~control ~now ~src ~dst (frame : Reliable.frame) =
  let size_bytes =
    Reliable.frame_bytes
    + (match frame.Reliable.fr_data with Some am -> am.Am.size_bytes | None -> 0)
  in
  let p = Network.Packet.make ~src ~dst ~size_bytes () in
  let eta, arrivals =
    if control then Network.Fabric.send_control t.fabric ~now p
    else Network.Fabric.send_flaky t.fabric ~now p
  in
  (* Anchor the frame's retransmission deadline at its fault-free
     arrival estimate, so injection queueing is not mistaken for loss. *)
  if frame.Reliable.fr_seq >= 0 then
    Reliable.note_eta (Option.get t.rel) ~src ~dst ~seq:frame.Reliable.fr_seq
      ~eta;
  List.iter
    (fun arrival ->
      emit_obs t ~time:arrival ~node:src (Obs_deliver { time = arrival; src; dst });
      add_event t ~time:arrival (Frame_rx { src; dst; frame }))
    arrivals;
  eta

let arm_rel_tick t rel ~src ~dst ~now =
  match Reliable.timer_request rel ~src ~dst ~now with
  | Some at -> add_event t ~time:at (Rel_tick { src; dst })
  | None -> ()

let rel_send t rel ~src ~dst am =
  let now = Node.now t.nodes.(src) in
  (match Reliable.push rel ~src ~dst ~now am with
  | `Send frame -> ignore (transmit_frame t ~control:false ~now ~src ~dst frame)
  | `Queued -> Simcore.Stats.incr t.stats "reliable.backlogged");
  arm_rel_tick t rel ~src ~dst ~now

(* --- per-destination aggregation (config.coalesce) --- *)

(* A frame's wire size inside a batch: its payload plus the per-frame
   length word (the batch shares one routing header and one launch). *)
let frame_wire_bytes (frame : Reliable.frame) =
  Network.Packet.batch_frame_bytes + Reliable.frame_bytes
  + (match frame.Reliable.fr_data with Some am -> am.Am.size_bytes | None -> 0)

let am_wire_bytes (am : Am.t) =
  Network.Packet.batch_frame_bytes + am.Am.size_bytes

(* Delivery of a multi-frame packet is pipelined, cut-through style: a
   frame is usable at the destination once *its* bytes have landed, not
   when the packet tail does. [arrival] is the fabric's answer for the
   last byte; earlier frames land earlier by the transmission time of
   the bytes behind them. This is what makes aggregation a latency win
   and not only a packet-count win: under a saturated injection port
   the per-frame headers and launches it removes shorten the whole
   queue. Stagger is monotone within the batch, and the first frame
   still lands after the previous packet on the channel (the port
   serialised their transmissions), so per-channel FIFO survives. *)
let staggered_arrivals t ~arrival sizes =
  let tail = List.fold_left ( + ) 0 sizes in
  let _, acc =
    List.fold_left
      (fun (behind, acc) sz ->
        let behind = behind - sz in
        (behind, (arrival - Network.Fabric.transmission_ns t.fabric behind) :: acc))
      (tail, []) sizes
  in
  List.rev acc

(* Control AMs other subsystems want to append to a departing batch
   (DGC decrement/debit traffic rides for free). *)
let collect_riders t ~src ~dst =
  match t.piggyback with
  | None -> []
  | Some hook ->
      let riders = hook ~src ~dst in
      List.iter
        (fun (am : Am.t) -> Simcore.Stats.bump (handler t am.Am.handler).h_sent)
        riders;
      riders

let note_batch co ~src ~frames ~riders ~cause =
  match co with
  | Co_data c -> Coalesce.note_batch c ~src ~frames ~riders ~cause
  | Co_framed c -> Coalesce.note_batch c ~src ~frames ~riders ~cause

(* Flush the open (src, dst) buffer of a fault-free machine: one packet,
   per-frame staggered delivery straight into the destination inbox. *)
let flush_data t co ~src ~dst ~now ~cause =
  match Coalesce.take co ~src ~dst with
  | None -> ()
  | Some (ams, bytes, newest) ->
      (* Deadline/credit flushes fire at engine-event times that can
         trail the (optimistic) sender clock at append; never inject a
         packet before its newest frame existed. *)
      let now = max now newest in
      let riders = collect_riders t ~src ~dst in
      let bytes =
        List.fold_left (fun b am -> b + am_wire_bytes am) bytes riders
      in
      let ams = ams @ riders in
      let frames = List.length ams in
      note_batch (Co_data co) ~src ~frames ~riders:(List.length riders) ~cause;
      let arrival =
        Network.Fabric.send t.fabric ~now
          (Network.Packet.make ~src ~dst ~size_bytes:bytes ())
      in
      let arrivals =
        staggered_arrivals t ~arrival (List.map am_wire_bytes ams)
      in
      emit_obs t ~time:arrival ~node:src (Obs_batch { time = arrival; src; dst; frames });
      List.iter2
        (fun am at ->
          emit_obs t ~time:at ~node:src (Obs_deliver { time = at; src; dst });
          deliver_remote t ~src ~dst ~arrival:at am)
        ams arrivals;
      add_event t ~time:arrival (Co_credit { src; dst })

(* Flush the open (src, dst) buffer of the reliable layer: one flaky
   packet whose frames share a fate (all dropped, all duplicated), with
   the cumulative ack refreshed on the last frame so the batch carries
   the newest ack state. Returns whether a batch actually left (a flush
   can park on flow control). *)
let flush_framed t rel co ~src ~dst ~now ~cause =
  match Coalesce.take co ~src ~dst with
  | None -> false
  | Some (frames, bytes, newest) ->
      let now = max now newest in
      (* Riders enter the sequenced window like any other message so
         exactly-once still holds for them; window-full riders fall to
         the reliable backlog and leave with a later ack. *)
      let riders = collect_riders t ~src ~dst in
      let rev_frames, bytes, n_riders =
        List.fold_left
          (fun (fs, b, k) am ->
            match Reliable.push rel ~src ~dst ~now am with
            | `Send fr -> (fr :: fs, b + frame_wire_bytes fr, k + 1)
            | `Queued ->
                Simcore.Stats.incr t.stats "reliable.backlogged";
                (fs, b, k))
          (List.rev frames, bytes, 0) riders
      in
      (* The batch reaches the wire now: restamp the last frame with the
         current cumulative ack (cancelling a pending standalone ack). *)
      let frames =
        match rev_frames with
        | [] -> []
        | last :: rest ->
            let ack = Reliable.take_piggyback rel ~me:src ~peer:dst ~now in
            List.rev ({ last with Reliable.fr_ack = ack } :: rest)
      in
      let n_frames = List.length frames in
      note_batch (Co_framed co) ~src ~frames:n_frames
        ~riders:(List.length riders) ~cause;
      let p =
        Network.Packet.make ~src ~dst ~size_bytes:bytes ()
      in
      let eta, arrivals = Network.Fabric.send_flaky t.fabric ~now p in
      List.iter
        (fun (fr : Reliable.frame) ->
          if fr.Reliable.fr_seq >= 0 then
            Reliable.note_eta rel ~src ~dst ~seq:fr.Reliable.fr_seq ~eta)
        frames;
      let sizes = List.map frame_wire_bytes frames in
      List.iter
        (fun arrival ->
          emit_obs t ~time:arrival ~node:src
            (Obs_batch { time = arrival; src; dst; frames = n_frames });
          List.iter2
            (fun fr at ->
              emit_obs t ~time:at ~node:src (Obs_deliver { time = at; src; dst });
              add_event t ~time:at (Frame_rx { src; dst; frame = fr }))
            frames
            (staggered_arrivals t ~arrival sizes))
        arrivals;
      (* The credit comes back at the fault-free arrival estimate, drop
         or not — flow control must not leak credits to the fault plan. *)
      add_event t ~time:eta (Co_credit { src; dst });
      if n_riders > 0 then arm_rel_tick t rel ~src ~dst ~now;
      true

let co_send_data t co ~src ~dst ~now am =
  let port_free = Network.Fabric.injection_idle t.fabric ~node:src ~now in
  match
    Coalesce.offer co ~src ~dst ~now ~bytes:(am_wire_bytes am) ~port_free am
  with
  | `Bypass ->
      let arrival =
        Network.Fabric.send t.fabric ~now
          (Network.Packet.make ~src ~dst ~size_bytes:am.Am.size_bytes ())
      in
      emit_obs t ~time:arrival ~node:src (Obs_deliver { time = arrival; src; dst });
      deliver_remote t ~src ~dst ~arrival am;
      add_event t ~time:arrival (Co_credit { src; dst })
  | `Opened ->
      (* Deadline timing is a decision point: the check may fire up to
         half a deadline late, stretching the aggregation window the way
         a busy host would. A pick of 0 is the exact deadline. *)
      let delay = (Coalesce.config co).Coalesce.max_delay_ns in
      let jitter = decide t "co.flush.delay" (1 + (delay / 2)) in
      add_event t ~time:(now + delay + jitter) (Co_flush { src; dst })
  | `Buffered -> ()
  | `Threshold -> flush_data t co ~src ~dst ~now ~cause:Coalesce.Size

let co_send_framed t rel co ~src ~dst ~now am =
  (match Reliable.push rel ~src ~dst ~now am with
  | `Queued -> Simcore.Stats.incr t.stats "reliable.backlogged"
  | `Send frame -> (
      let port_free = Network.Fabric.injection_idle t.fabric ~node:src ~now in
      match
        Coalesce.offer co ~src ~dst ~now ~bytes:(frame_wire_bytes frame)
          ~port_free frame
      with
      | `Bypass ->
          let eta = transmit_frame t ~control:false ~now ~src ~dst frame in
          add_event t ~time:eta (Co_credit { src; dst })
      | `Opened ->
          add_event t
            ~time:(now + (Coalesce.config co).Coalesce.max_delay_ns)
            (Co_flush { src; dst })
      | `Buffered -> ()
      | `Threshold ->
          ignore (flush_framed t rel co ~src ~dst ~now ~cause:Coalesce.Size)));
  arm_rel_tick t rel ~src ~dst ~now

(* The scheduler-idle flush: the node ran out of queued work, so
   anything still buffered leaves now at zero added latency (the
   paper's poll-when-dormant moment). *)
let flush_open_buffers t node =
  match t.co with
  | None -> ()
  | Some co -> (
      let src = Node.id node in
      let now = Node.now node in
      match co with
      | Co_data c ->
          List.iter
            (fun dst -> flush_data t c ~src ~dst ~now ~cause:Coalesce.Idle)
            (Coalesce.open_dsts c ~src)
      | Co_framed c ->
          let rel = Option.get t.rel in
          List.iter
            (fun dst ->
              ignore (flush_framed t rel c ~src ~dst ~now ~cause:Coalesce.Idle))
            (Coalesce.open_dsts c ~src))

let handle_co_flush t ~time ~src ~dst =
  match t.co with
  | None -> ()
  | Some (Co_data c) -> (
      match Coalesce.deadline_check c ~src ~dst ~now:time with
      | `Flush -> flush_data t c ~src ~dst ~now:time ~cause:Coalesce.Deadline
      | `Rearm at -> add_event t ~time:at (Co_flush { src; dst })
      | `Idle -> ())
  | Some (Co_framed c) -> (
      match Coalesce.deadline_check c ~src ~dst ~now:time with
      | `Flush ->
          ignore
            (flush_framed t (Option.get t.rel) c ~src ~dst ~now:time
               ~cause:Coalesce.Deadline)
      | `Rearm at -> add_event t ~time:at (Co_flush { src; dst })
      | `Idle -> ())

let handle_co_credit t ~time ~src ~dst =
  match t.co with
  | None -> ()
  | Some (Co_data c) -> (
      match Coalesce.credit_return c ~src ~dst with
      | `Flush -> flush_data t c ~src ~dst ~now:time ~cause:Coalesce.Credit
      | `Idle -> ())
  | Some (Co_framed c) -> (
      match Coalesce.credit_return c ~src ~dst with
      | `Flush ->
          ignore
            (flush_framed t (Option.get t.rel) c ~src ~dst ~now:time
               ~cause:Coalesce.Credit)
      | `Idle -> ())

let handle_frame t rel ~time ~src ~dst (frame : Reliable.frame) =
  let c = t.config.cost in
  let dst_node = t.nodes.(dst) in
  (* Per-frame protocol bookkeeping runs on the receiving CPU. *)
  charge t dst_node c.Cost_model.reliable_frame;
  (* The piggybacked (or pure) ack serves the reverse channel. *)
  let released = Reliable.on_ack rel ~src:dst ~dst:src ~ack:frame.Reliable.fr_ack ~now:time in
  (* A partial-ack re-send leads the list; it is a retransmission like
     the timer's, though the ack-clocked path charges no instructions. *)
  (match released with
  | fr :: _ when Reliable.resent rel ~src:dst ~dst:src ~seq:fr.Reliable.fr_seq ->
      Simcore.Stats.bump t.c_retransmit
  | _ -> ());
  List.iter
    (fun fr -> ignore (transmit_frame t ~control:true ~now:time ~src:dst ~dst:src fr))
    released;
  if released <> [] then arm_rel_tick t rel ~src:dst ~dst:src ~now:time;
  match frame.Reliable.fr_data with
  | None -> ()
  | Some am ->
      (match Reliable.on_data rel ~src ~dst ~seq:frame.Reliable.fr_seq am with
      | `Deliver ams ->
          List.iter (fun am -> deliver_local t ~dst ~arrival:time am) ams
      | `Duplicate -> Simcore.Stats.bump t.c_dup_discard
      | `Reordered -> ());
      (* Data owes an acknowledgement: piggybacked on reverse traffic if
         any leaves soon, otherwise by the delayed-ack timer. Duplicates
         re-ack too — the previous ack may have been lost. *)
      (match Reliable.ack_needed rel ~me:dst ~peer:src ~now:time with
      | Some at -> add_event t ~time:at (Ack_tick { me = dst; peer = src })
      | None -> ())

let handle_rel_tick t rel ~time ~src ~dst =
  match Reliable.on_timer rel ~src ~dst ~now:time with
  | `Idle -> ()
  | `Wait at -> add_event t ~time:at (Rel_tick { src; dst })
  | `Retransmit (frame, next_at) ->
      Simcore.Stats.bump t.c_retransmit;
      charge t t.nodes.(src) t.config.cost.Cost_model.reliable_retransmit;
      ignore (transmit_frame t ~control:true ~now:time ~src ~dst frame);
      add_event t ~time:next_at (Rel_tick { src; dst })

let handle_ack_tick t rel ~time ~me ~peer =
  (* An open aggregation buffer towards the peer is a free ack carrier:
     flush it and let the batch's refreshed cumulative ack stand in for
     the standalone frame. The fall-through below still transmits a pure
     ack when the flush parked on flow control or could not cancel the
     pending ack (buffered frames stamped past the ack deadline). *)
  (match t.co with
  | Some (Co_framed c) when Coalesce.has_open c ~src:me ~dst:peer ->
      ignore (flush_framed t rel c ~src:me ~dst:peer ~now:time ~cause:Coalesce.Ack)
  | _ -> ());
  match Reliable.on_ack_timer rel ~me ~peer with
  | None -> () (* piggybacked in the meantime (possibly by the flush above) *)
  | Some frame ->
      Simcore.Stats.bump t.c_ack;
      charge t t.nodes.(me) t.config.cost.Cost_model.reliable_ack;
      ignore (transmit_frame t ~control:true ~now:time ~src:me ~dst:peer frame)

(* --- the active-message entry point --- *)

let rec send_am t ~src ~dst ~handler:hid ~size_bytes payload =
  match t.recovery with
  | Some hooks when not (hooks.rc_send ~src:(Node.id src)) ->
      (* Log replay on a restarted node: the original send already made
         it into the journaled reliable state (remote) or the delivery
         log (loopback); re-emitting it would duplicate the message. *)
      ()
  | _ -> send_am_live t ~src ~dst ~handler:hid ~size_bytes payload

and send_am_live t ~src ~dst ~handler:hid ~size_bytes payload =
  let h = handler t hid in
  Simcore.Stats.bump h.h_sent;
  let am = { Am.handler = hid; src = Node.id src; size_bytes; payload } in
  let now = Node.now src in
  if dst = Node.id src then begin
    (* Loopback bypasses the fabric (and with it the fault layer); it
       stays immediate in a parallel run too — source and destination
       are the same node, so there is nothing to defer. *)
    emit_obs t ~time:(now + 1) ~node:(Node.id src)
      (Obs_deliver { time = now + 1; src = Node.id src; dst });
    deliver_local t ~dst ~arrival:(now + 1) am
  end
  else
    match (t.rel, t.co) with
    | Some rel, Some (Co_framed c) ->
        co_send_framed t rel c ~src:(Node.id src) ~dst ~now am
    | Some rel, _ -> rel_send t rel ~src:(Node.id src) ~dst am
    | None, Some (Co_data c) -> co_send_data t c ~src:(Node.id src) ~dst ~now am
    | None, _ ->
        let arrival =
          Network.Fabric.send t.fabric ~now
            (Network.Packet.make ~src:(Node.id src) ~dst ~size_bytes ())
        in
        emit_obs t ~time:arrival ~node:(Node.id src)
          (Obs_deliver { time = arrival; src = Node.id src; dst });
        (* The message sits in the destination's arrival-ordered inbox at
           once (it only becomes *visible* when the clock passes its
           arrival), so interrupt-mode delivery can notice it
           mid-computation. Parallel runs defer it to the boundary. *)
        deliver_remote t ~src:(Node.id src) ~dst ~arrival am

let dispatch t node am =
  (match t.recovery with
  | Some h -> h.rc_dispatch ~node:(Node.id node) am
  | None -> ());
  let c = t.config.cost in
  charge t node c.Cost_model.msg_receive_handling;
  (match t.config.delivery with
  | Polling -> ()
  | Interrupt -> charge t node c.Cost_model.interrupt_overhead);
  (handler t am.Am.handler).h_fn t node am

(* Log replay: run a message's handler again on the restarted node. Goes
   through [dispatch] so the replayed work is charged (and observed by
   the recovery hooks) exactly like the original run. *)
let redispatch t ~node am = dispatch t t.nodes.(node) am

let poll t node =
  while Node.inbox_min node <= Node.now node do
    dispatch t node (Node.inbox_take node)
  done

(* nCUBE/2-style delivery: message arrival interrupts the computation.
   Interrupts are taken only at explicit interrupt points — user-level
   computation (Ctx.charge) and message-send boundaries — never inside
   runtime bookkeeping, whose critical sections are thereby implicitly
   masked, as on a real machine. Re-entrant interrupts are masked while
   a handler runs. *)
let interrupt_point t node =
  if
    t.config.delivery = Interrupt
    && (not (Node.interrupts_masked node))
    && Node.inbox_min node <= Node.now node
  then begin
    let am = Node.inbox_take node in
    Node.set_interrupts_masked node true;
    match
      dispatch t node am;
      poll t node
    with
    | () -> Node.set_interrupts_masked node false
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        Node.set_interrupts_masked node false;
        Printexc.raise_with_backtrace e bt
  end

let post t node thunk =
  (* A dead machine refuses work: the thunk is not queued (the run
     queue is volatile and a down node must stay empty), only counted.
     Callers that need the work to survive must resubmit after the
     restart — exactly like a client of a crashed server. *)
  if t.down.(Node.id node) then Simcore.Stats.bump t.c_post_refused
  else begin
    (match t.par with
    | Some p
      when p.p_running
           && p.p_dom_of.(Node.id node) <> Simcore.Domain_ctx.current () ->
        (* No canonical stamp exists for an anonymous cross-domain post;
           drive remote nodes through messages (or [schedule_on]). *)
        invalid_arg "Engine.post: cross-domain post during a parallel run"
    | _ -> ());
    Node.runq_push node thunk;
    wake t node ~time:(max (now_cur t) (Node.now node))
  end

let reschedule_or_idle t node =
  if Node.runq_size node > 0 then begin
    Node.set_next_wake node (Node.now node);
    add_event t ~time:(Node.now node) (Wake (Node.id node))
  end
  else
    let arrival = Node.inbox_min node in
    if arrival < max_int then begin
      let time = max arrival (Node.now node) in
      Node.set_next_wake node time;
      add_event t ~time (Wake (Node.id node))
    end
    else begin
      Node.set_next_wake node max_int;
      Node.set_idle node true
    end

let set_observer t obs = t.observer <- obs

(* --- crash and restart --- *)

(* Kill node [i] now: volatile state (inbox, run queue, open aggregation
   buffers) is gone; the clock survives as the engine's virtual-time
   cursor. The node processes no events until {!restart_node}. The
   reliable layer's channel state is *not* touched — under the
   pessimistic-journaling model its tables mirror the stable store, so
   the in-memory view doubles as the recovered view. *)
let crash_node t i ~restart_at =
  if i < 0 || i >= Array.length t.nodes then
    invalid_arg "Engine.crash_node: bad node";
  if t.down.(i) then invalid_arg "Engine.crash_node: node already down";
  (* [now_cur]: in a parallel run the caller is a node-owned [Timer]
     handler on the owning domain, whose virtual now at that point is the
     event time — count-invariant, unlike the engine-global cursor. *)
  let vnow = now_cur t in
  let now = max vnow (Node.now t.nodes.(i)) in
  if restart_at <= now then
    invalid_arg "Engine.crash_node: restart_at must be in the future";
  t.down.(i) <- true;
  t.restart_due.(i) <- restart_at;
  t.node_crashes.(i) <- t.node_crashes.(i) + 1;
  Node.crash_reset t.nodes.(i);
  (match t.co with
  | Some (Co_data c) -> Coalesce.reset_src c ~src:i
  | Some (Co_framed c) -> Coalesce.reset_src c ~src:i
  | None -> ());
  emit_obs t ~time:vnow ~node:i
    (Obs_crash { time = vnow; node = i; incarnation = t.incarnation.(i) })

(* Bring node [i] back as a fresh incarnation and wake it so it polls
   whatever the recovery manager rebuilt into its inbox. The caller
   (the manager) restores state *before* calling this. *)
let restart_node t i =
  if not t.down.(i) then invalid_arg "Engine.restart_node: node is not down";
  t.down.(i) <- false;
  t.restart_due.(i) <- 0;
  t.incarnation.(i) <- t.incarnation.(i) + 1;
  let vnow = now_cur t in
  emit_obs t ~time:vnow ~node:i
    (Obs_restart { time = vnow; node = i; incarnation = t.incarnation.(i) });
  wake t t.nodes.(i) ~time:vnow

let step t node ~time =
  Node.set_next_wake node max_int;
  Simcore.Clock.advance_to (Node.clock node) time;
  let t_start = Node.now node in
  poll t node;
  (match Node.runq_pop node with
  | Some thunk ->
      charge t node t.config.cost.Cost_model.sched_dequeue;
      thunk ()
  | None -> ());
  (let t_end = Node.now node in
   if t_end > t_start then
     emit_obs t ~time:t_start ~node:(Node.id node)
       (Obs_slice { node = Node.id node; t_start; t_end }));
  (* The scheduler ran dry: open aggregation buffers leave now, so
     dormant nodes pay zero added send latency for coalescing. *)
  if Node.runq_size node = 0 then flush_open_buffers t node;
  reschedule_or_idle t node

(* Execute one engine event. Shared by the sequential loop and each
   parallel window (every event a domain pops targets work it owns, and
   every event it creates routes back through [add_event], so the same
   dispatch is exact in both modes). [count_slice] is the caller's
   slice accounting — the livelock bound is per mode.

   A down node is deaf: its wakes are stale, frames addressed to it
   fall on a dead interface, and its protocol timers are deferred past
   the restart rather than consumed (dropping a Rel_tick/Ack_tick would
   strand the layer's armed-timer flag and stall retransmission
   forever). *)
let exec_event t ~time ~count_slice ev =
  let deferred_to restart_at =
    if time > restart_at then time + 1 else restart_at + 1
  in
  match ev with
  | Wake i when t.down.(i) -> ()
  | Wake i ->
      count_slice ();
      step t t.nodes.(i) ~time
  | Frame_rx { dst; _ } when t.down.(dst) -> Simcore.Stats.bump t.c_down_drop
  | Frame_rx { src; dst; frame } ->
      handle_frame t (Option.get t.rel) ~time ~src ~dst frame
  | Rel_tick { src; dst } when t.down.(src) ->
      add_event t ~time:(deferred_to t.restart_due.(src)) (Rel_tick { src; dst })
  | Rel_tick { src; dst } -> handle_rel_tick t (Option.get t.rel) ~time ~src ~dst
  | Ack_tick { me; peer } when t.down.(me) ->
      add_event t ~time:(deferred_to t.restart_due.(me)) (Ack_tick { me; peer })
  | Ack_tick { me; peer } -> handle_ack_tick t (Option.get t.rel) ~time ~me ~peer
  | Co_flush { src; dst } -> handle_co_flush t ~time ~src ~dst
  | Co_credit { src; dst } -> handle_co_credit t ~time ~src ~dst
  | Timer { fn; _ } -> fn ()

let run ?(max_slices = max_int) t =
  let slices = ref 0 in
  let count_slice () =
    incr slices;
    if !slices > max_slices then
      failwith "Engine.run: max_slices exceeded (livelock?)"
  in
  let q = t.events in
  while not (Simcore.Event_queue.is_empty q) do
    let time = Simcore.Event_queue.min_time q in
    let ev = Simcore.Event_queue.take q in
    if time > t.vnow then t.vnow <- time;
    exec_event t ~time ~count_slice ev;
    t.evcount <- t.evcount + 1
  done

(* --- parallel run: conservative lookahead over sharded nodes ------- *)

(* Soundness sketch. Let m be the global minimum pending-event time at a
   round boundary and L = Fabric.min_remote_latency. Every event a
   domain executes in the window [m, m + L) runs on a node whose clock
   is >= its event time >= m, so any cross-node send it performs is
   injected at now >= m and arrives at >= now + L >= m + L — at or past
   the horizon, i.e. outside the window of *every* domain. Windows are
   therefore interaction-free and domains can execute them unordered.
   Determinism: deferred deliveries apply at the next boundary in
   (arrival, src node, per-src seq) order, which is independent of the
   domain count — by induction each round's horizon, per-node work and
   boundary multiset are count-invariant, so the whole execution is. *)

let run_parallel ?(max_slices = max_int) t ~domains () =
  (* Every precondition is checked before *any* state is touched: a
     rejected call must leave the engine exactly as it was, so a caller
     can fall back to the sequential [run]. *)
  if domains < 1 then invalid_arg "Engine.run_parallel: domains must be >= 1";
  if Array.exists Fun.id t.down then
    invalid_arg "Engine.run_parallel: nodes are down";
  if t.config.fabric.Network.Fabric.contention then
    invalid_arg
      "Engine.run_parallel: fabric contention needs the sequential engine";
  if Option.is_some t.recovery then
    invalid_arg "Engine.run_parallel: recovery hooks need the sequential engine";
  if Option.is_some t.rel then
    invalid_arg "Engine.run_parallel: a fault plan needs the sequential engine";
  if Option.is_some t.decision then
    invalid_arg "Engine.run_parallel: decision hook set";
  if t.tie_break_set then
    invalid_arg "Engine.run_parallel: tie-break hook set";
  if t.engine_timer_set then
    invalid_arg "Engine.run_parallel: engine-level timer scheduled";
  if Option.is_some t.par then
    invalid_arg "Engine.run_parallel: parallel run already active";
  let lookahead = Network.Fabric.min_remote_latency t.fabric in
  if lookahead < 1 then
    invalid_arg "Engine.run_parallel: fabric lookahead is zero";
  let n = Array.length t.nodes in
  let domains = min domains n in
  (* All guards passed — mutation may start. *)
  Simcore.Stats.shard t.stats domains;
  (* Contiguous blocks of nodes per domain, balanced to within one. *)
  let dom_of = Array.init n (fun i -> i * domains / n) in
  let queues = Array.init domains (fun _ -> Simcore.Event_queue.create ()) in
  (* Hand pending events to their owners, preserving (time, seq) order:
     each queue receives its events as a subsequence of the global
     order, so per-queue tie-breaks are count-invariant too. Every
     event kind has an owning node (protocol events belong to the node
     whose channel end they tick). *)
  let rec redistribute () =
    match Simcore.Event_queue.pop t.events with
    | None -> ()
    | Some (time, ev) ->
        let d =
          match ev with
          | Wake i -> dom_of.(i)
          | Frame_rx { dst; _ } -> dom_of.(dst)
          | Rel_tick { src; _ } -> dom_of.(src)
          | Ack_tick { me; _ } -> dom_of.(me)
          | Co_flush { src; _ } -> dom_of.(src)
          | Co_credit { src; _ } -> dom_of.(src)
          | Timer { node; _ } -> dom_of.(node)
        in
        Simcore.Event_queue.add queues.(d) ~time ev;
        redistribute ()
  in
  redistribute ();
  let pad = pstride in
  let par =
    {
      p_domains = domains;
      p_dom_of = dom_of;
      p_queues = queues;
      p_boxes =
        Array.init domains (fun _ ->
            Array.init domains (fun _ -> Simcore.Spsc.create ()));
      p_pending = Array.make domains [];
      p_barrier = Simcore.Barrier.create domains;
      p_lookahead = lookahead;
      p_mins = Array.make (domains * pad) max_int;
      p_vnow = Array.make (domains * pad) t.vnow;
      p_horizon = Array.make (domains * pad) 0;
      p_slices = Array.make (domains * pad) 0;
      p_events = Array.make (domains * pad) 0;
      p_send_seq = Array.make n 0;
      p_obs_seq = Array.make n 0;
      p_obs = Array.make domains [];
      p_errflag = Array.make (domains * pad) 0;
      p_slices_pub = Array.make (domains * pad) 0;
      p_err = Array.make domains None;
      p_running = true;
    }
  in
  t.par <- Some par;
  let record_err d e =
    if par.p_err.(d) = None then
      par.p_err.(d) <- Some (e, Printexc.get_raw_backtrace ())
  in
  (* One round per iteration: apply boundary deliveries canonically,
     publish the local minimum, error flag and slice count, agree on
     the verdict (replicated, not communicated — everyone reads the
     same boundary-published slots after barrier A), execute the
     window. Every exit decision — error, empty queues, max_slices —
     is a pure function of barrier-frozen data, so all domains leave
     in the same round having crossed the same number of barriers;
     nobody can desert a barrier another domain is still waiting on. *)
  let worker d =
    Simcore.Domain_ctx.set d;
    let q = par.p_queues.(d) in
    let count_slice () =
      par.p_slices.(d * pad) <- par.p_slices.(d * pad) + 1
    in
    let running = ref true in
    while !running do
      (try
         let mine = List.rev par.p_pending.(d) in
         par.p_pending.(d) <- [];
         let incoming = ref mine in
         for s = 0 to domains - 1 do
           incoming := !incoming @ Simcore.Spsc.drain par.p_boxes.(s).(d)
         done;
         let items =
           List.sort
             (fun a b ->
               match compare a.x_time b.x_time with
               | 0 -> (
                   match compare a.x_src b.x_src with
                   | 0 -> compare a.x_seq b.x_seq
                   | c -> c)
               | c -> c)
             !incoming
         in
         List.iter
           (fun it -> deliver_local t ~dst:it.x_dst ~arrival:it.x_time it.x_pay)
           items;
         par.p_mins.(d * pad) <- Simcore.Event_queue.min_time q
       with e -> record_err d e);
      (* Publish this domain's error flag and slice count before the
         barrier: the verdict below reads only these boundary-published
         slots, never live state a faster domain could still be
         mutating inside its window. An error raised mid-window is
         therefore invisible until the next round — where every domain
         sees it at once and exits together, matching barrier counts. *)
      par.p_errflag.(d * pad) <- (if par.p_err.(d) <> None then 1 else 0);
      par.p_slices_pub.(d * pad) <- par.p_slices.(d * pad);
      Simcore.Barrier.await par.p_barrier ~me:d;
      let stop = ref false in
      for k = 0 to domains - 1 do
        if par.p_errflag.(k * pad) <> 0 then stop := true
      done;
      if !stop then running := false
      else begin
        let m = ref max_int in
        for k = 0 to domains - 1 do
          if par.p_mins.(k * pad) < !m then m := par.p_mins.(k * pad)
        done;
        let total_slices = ref 0 in
        for k = 0 to domains - 1 do
          total_slices := !total_slices + par.p_slices_pub.(k * pad)
        done;
        if !m = max_int then running := false
        else if !total_slices > max_slices then begin
          (* Replicated verdict (frozen slot scan): every domain takes
             this branch in the same round; only domain 0 records the
             error so the report is singular. *)
          if d = 0 then
            record_err d
              (Failure "Engine.run_parallel: max_slices exceeded (livelock?)");
          running := false
        end
        else begin
          let horizon = !m + par.p_lookahead in
          par.p_horizon.(d * pad) <- horizon;
          (try
             while Simcore.Event_queue.min_time q < horizon do
               let time = Simcore.Event_queue.min_time q in
               let ev = Simcore.Event_queue.take q in
               if time > par.p_vnow.(d * pad) then par.p_vnow.(d * pad) <- time;
               par.p_events.(d * pad) <- par.p_events.(d * pad) + 1;
               exec_event t ~time ~count_slice ev
             done
           with e -> record_err d e);
          Simcore.Barrier.await par.p_barrier ~me:d
        end
      end
    done
  in
  let spawned =
    Array.init (domains - 1) (fun k ->
        Domain.spawn (fun () ->
            try worker (k + 1) with e -> record_err (k + 1) e))
  in
  (try worker 0 with e -> record_err 0 e);
  Array.iter Domain.join spawned;
  par.p_running <- false;
  t.par <- None;
  Simcore.Domain_ctx.set 0;
  (* Fold the per-domain cursors back into the sequential view. *)
  for k = 0 to domains - 1 do
    if par.p_vnow.(k * pad) > t.vnow then t.vnow <- par.p_vnow.(k * pad);
    t.evcount <- t.evcount + par.p_events.(k * pad)
  done;
  (* First failure wins, by domain index — deterministic. *)
  Array.iter
    (function
      | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt | None -> ())
    par.p_err;
  (* Deterministic observation replay: merge every domain's buffer in
     canonical (time, node, seq) order — a total order, since per-node
     seqs never collide. *)
  match t.observer with
  | None -> ()
  | Some f ->
      let all =
        Array.fold_left (fun acc l -> List.rev_append l acc) [] par.p_obs
      in
      let all =
        List.sort
          (fun (t1, n1, s1, _) (t2, n2, s2, _) ->
            match compare t1 t2 with
            | 0 -> ( match compare n1 n2 with 0 -> compare s1 s2 | c -> c)
            | c -> c)
          all
      in
      List.iter (fun (_, _, _, o) -> f o) all

let events_processed t =
  match t.par with
  | Some p when p.p_running ->
      let total = ref t.evcount in
      for k = 0 to p.p_domains - 1 do
        total := !total + p.p_events.(k * pstride)
      done;
      !total
  | _ -> t.evcount

let lookahead_ns t = Network.Fabric.min_remote_latency t.fabric

(* Domain-local inside a parallel run: each worker's virtual now is its
   own cursor (the global cursor only folds back at the end). *)
let now t = now_cur t

let elapsed t =
  Array.fold_left (fun acc n -> max acc (Node.now n)) Simcore.Time.zero t.nodes

let total_busy t =
  Array.fold_left
    (fun acc n -> acc + Simcore.Clock.busy_time (Node.clock n))
    0 t.nodes

let utilization t =
  let e = elapsed t in
  if e = 0 then 0.
  else
    float_of_int (total_busy t)
    /. (float_of_int e *. float_of_int (node_count t))

let packets_sent t = Network.Fabric.packets_sent t.fabric
let bytes_sent t = Network.Fabric.bytes_sent t.fabric
