(* Per-destination aggregation of outgoing frames (the batching half of
   the paper's overhead-amortisation story, applied to the inter-node
   path). The module is a passive, deterministic state machine: the
   engine asks it what to do with each outgoing frame and tells it when
   flush triggers fire; all fabric and clock work stays in the engine.

   One buffer per (src, dst) channel. A frame offered to an empty buffer
   while the source injection port is idle *bypasses* aggregation — the
   wire is free, waiting could only add latency, and the single-message
   path stays bit-identical to the unbatched build (the Table-1 numbers).
   Aggregation engages exactly when frames are produced faster than the
   port drains them (send bursts, control-plane fan-out): the excess
   accumulates and leaves as one packet, paying one header and one
   hardware launch.

   Flush triggers, in the order they usually fire:
   - size: the buffer reached the byte or frame threshold (checked on
     append, so a threshold flush adds no waiting at all);
   - idle: the sending node ran out of work (the paper's poll-when-
     dormant moment — anything still buffered leaves before the node
     sleeps, so a batch of one flushes with zero added delay);
   - deadline: an age limit for buffers opened mid-slice on a node that
     keeps computing (bounds worst-case added latency);
   - ack: the reliable layer owed the peer a standalone ack and an open
     batch can carry it instead;
   - credit: a flush was blocked by flow control and a credit returned.

   Credits are per-channel: at most [credits] batches (or bypass
   singles) may be outstanding — flushed but not yet landed — per
   destination, so one hot channel cannot monopolise the injection port
   while others starve. A blocked flush parks ([starved]) and fires on
   the next credit return. *)

(* Size thresholds: a buffer flushes when it reaches this many wire
   bytes or this many frames. *)
let max_batch_bytes = 512
let max_batch_frames = 16

type config = {
  max_delay_ns : int;
  credits : int;
}

let default_config =
  {
    max_delay_ns = 5_000;
    credits = 4;
  }

type cause = Size | Idle | Deadline | Ack | Credit

type 'a chan = {
  mutable buf : 'a list;  (** newest first; reversed on take *)
  mutable frames : int;
  mutable bytes : int;  (** wire bytes incl. per-frame batch headers *)
  mutable opened : Simcore.Time.t;  (** first append of the current buffer *)
  mutable newest : Simcore.Time.t;  (** latest append (causality floor) *)
  mutable armed : bool;  (** a deadline event is in the engine queue *)
  mutable credit : int;
  mutable starved : bool;  (** a flush is waiting for a credit *)
  mutable listed : bool;  (** dst present in the per-src open list *)
}

(* Every counter below is per source node: a channel (and its buffer)
   belongs to the sending node, so in a parallel run each array slot has
   a single writing domain and the totals are summed on read. *)
type 'a t = {
  cfg : config;
  nodes : int;
  chans : 'a chan array;  (** indexed by src * nodes + dst, preallocated *)
  open_dsts_by_src : int list array;  (** dsts with (possibly) open buffers *)
  buffered_by_src : int array;
  (* statistics *)
  frames_by_src : int array;  (** frames shipped inside batches *)
  riders_by_src : int array;  (** piggybacked control AMs appended at flush *)
  flush_size_by_src : int array;
  flush_idle_by_src : int array;
  flush_deadline_by_src : int array;
  flush_ack_by_src : int array;
  flush_credit_by_src : int array;
  occupancy_by_src : Simcore.Histogram.t array;  (** frames per batch *)
  node_batches : int array;
  node_singles : int array;
}

type stats = {
  s_batches : int;
  s_singles : int;
  s_frames : int;
  s_riders : int;
  s_flush_size : int;
  s_flush_idle : int;
  s_flush_deadline : int;
  s_flush_ack : int;
  s_flush_credit : int;
  s_buffered : int;
  s_occupancy : Simcore.Histogram.t;
}

let create ?(config = default_config) ~nodes () =
  if config.credits < 1 then invalid_arg "Coalesce.create: credits must be >= 1";
  if config.max_delay_ns < 1 then
    invalid_arg "Coalesce.create: max_delay_ns must be >= 1";
  {
    cfg = config;
    nodes;
    chans =
      Array.init (nodes * nodes) (fun _ ->
          {
            buf = [];
            frames = 0;
            bytes = 0;
            opened = 0;
            newest = 0;
            armed = false;
            credit = config.credits;
            starved = false;
            listed = false;
          });
    open_dsts_by_src = Array.make nodes [];
    buffered_by_src = Array.make nodes 0;
    frames_by_src = Array.make nodes 0;
    riders_by_src = Array.make nodes 0;
    flush_size_by_src = Array.make nodes 0;
    flush_idle_by_src = Array.make nodes 0;
    flush_deadline_by_src = Array.make nodes 0;
    flush_ack_by_src = Array.make nodes 0;
    flush_credit_by_src = Array.make nodes 0;
    occupancy_by_src =
      Array.init nodes (fun _ -> Simcore.Histogram.create ~bucket_width:2 ());
    node_batches = Array.make nodes 0;
    node_singles = Array.make nodes 0;
  }

let config t = t.cfg
let chan_of t ~src ~dst = t.chans.((src * t.nodes) + dst)

type verdict = [ `Bypass | `Opened | `Buffered | `Threshold ]

let offer t ~src ~dst ~now ~bytes ~port_free item : verdict =
  let ch = chan_of t ~src ~dst in
  if ch.frames = 0 && port_free && ch.credit > 0 then begin
    (* The wire is idle and nothing is queued: aggregation could only
       delay this frame. Send it alone, exactly as the unbatched build
       would (the caller uses the plain single-frame path). *)
    ch.credit <- ch.credit - 1;
    t.node_singles.(src) <- t.node_singles.(src) + 1;
    `Bypass
  end
  else begin
    ch.buf <- item :: ch.buf;
    ch.frames <- ch.frames + 1;
    ch.bytes <- ch.bytes + bytes;
    ch.newest <- max ch.newest now;
    t.buffered_by_src.(src) <- t.buffered_by_src.(src) + 1;
    if ch.frames = 1 then begin
      ch.opened <- now;
      if not ch.listed then begin
        ch.listed <- true;
        t.open_dsts_by_src.(src) <- dst :: t.open_dsts_by_src.(src)
      end
    end;
    if ch.frames >= max_batch_frames || ch.bytes >= max_batch_bytes
    then `Threshold
    else if ch.frames = 1 && not ch.armed then begin
      ch.armed <- true;
      `Opened
    end
    else `Buffered
  end

let take t ~src ~dst =
  let ch = chan_of t ~src ~dst in
  if ch.frames = 0 then None
  else if ch.credit = 0 then begin
    ch.starved <- true;
    None
  end
  else begin
    ch.credit <- ch.credit - 1;
    ch.starved <- false;
    let items = List.rev ch.buf in
    let bytes = ch.bytes and newest = ch.newest in
    t.buffered_by_src.(src) <- t.buffered_by_src.(src) - ch.frames;
    ch.buf <- [];
    ch.frames <- 0;
    ch.bytes <- 0;
    Some (items, bytes, newest)
  end

let note_batch t ~src ~frames ~riders ~cause =
  t.node_batches.(src) <- t.node_batches.(src) + 1;
  t.frames_by_src.(src) <- t.frames_by_src.(src) + frames;
  t.riders_by_src.(src) <- t.riders_by_src.(src) + riders;
  Simcore.Histogram.observe t.occupancy_by_src.(src) frames;
  let bump a = a.(src) <- a.(src) + 1 in
  match cause with
  | Size -> bump t.flush_size_by_src
  | Idle -> bump t.flush_idle_by_src
  | Deadline -> bump t.flush_deadline_by_src
  | Ack -> bump t.flush_ack_by_src
  | Credit -> bump t.flush_credit_by_src

let deadline_check t ~src ~dst ~now =
  let ch = chan_of t ~src ~dst in
  if ch.frames = 0 then begin
    ch.armed <- false;
    `Idle
  end
  else if now >= ch.opened + t.cfg.max_delay_ns then begin
    ch.armed <- false;
    `Flush
  end
  else begin
    (* The buffer the event was armed for already flushed and a fresh
       one opened since: follow the new buffer's age. *)
    `Rearm (ch.opened + t.cfg.max_delay_ns)
  end

let credit_return t ~src ~dst =
  let ch = chan_of t ~src ~dst in
  ch.credit <- min (ch.credit + 1) t.cfg.credits;
  if ch.starved && ch.frames > 0 then begin
    ch.starved <- false;
    `Flush
  end
  else begin
    ch.starved <- false;
    `Idle
  end

let has_open t ~src ~dst = (chan_of t ~src ~dst).frames > 0

(* Destinations with open buffers for [src], compacting the list (a dst
   flushed by deadline or threshold since it was listed drops out). *)
let open_dsts t ~src =
  let live, dead =
    List.partition (fun dst -> has_open t ~src ~dst) t.open_dsts_by_src.(src)
  in
  List.iter (fun dst -> (chan_of t ~src ~dst).listed <- false) dead;
  t.open_dsts_by_src.(src) <- live;
  live

let buffered t = Array.fold_left ( + ) 0 t.buffered_by_src

(* Crash: the source NIC's aggregation buffers are volatile. Buffered
   frames are simply forgotten — under a fault plan they were sequenced
   into the reliable layer *before* being offered here, so the journaled
   retransmission buffer still owns them and the restarted node resends
   them from there. Credits refill (outstanding batches' credit-return
   events may still land later; [credit_return] clamps at the cap). *)
let reset_src t ~src =
  t.open_dsts_by_src.(src) <- [];
  t.buffered_by_src.(src) <- 0;
  (* Every channel of the crashed source: wipe open buffers, and refill
     credits even on channels that only hold spent credits for in-flight
     singles. *)
  for dst = 0 to t.nodes - 1 do
    let ch = t.chans.((src * t.nodes) + dst) in
    ch.buf <- [];
    ch.frames <- 0;
    ch.bytes <- 0;
    ch.armed <- false;
    ch.credit <- t.cfg.credits;
    ch.starved <- false;
    ch.listed <- false
  done

let stats t =
  let sum = Array.fold_left ( + ) 0 in
  let occupancy = Simcore.Histogram.create ~bucket_width:2 () in
  Array.iter
    (fun h -> Simcore.Histogram.merge_into ~into:occupancy h)
    t.occupancy_by_src;
  {
    s_batches = sum t.node_batches;
    s_singles = sum t.node_singles;
    s_frames = sum t.frames_by_src;
    s_riders = sum t.riders_by_src;
    s_flush_size = sum t.flush_size_by_src;
    s_flush_idle = sum t.flush_idle_by_src;
    s_flush_deadline = sum t.flush_deadline_by_src;
    s_flush_ack = sum t.flush_ack_by_src;
    s_flush_credit = sum t.flush_credit_by_src;
    s_buffered = sum t.buffered_by_src;
    s_occupancy = occupancy;
  }
