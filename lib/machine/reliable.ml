type config = {
  window : int;
  ack_delay_ns : int;
  rto_ns : int;
  backoff : int;
  max_rto_ns : int;
  max_retries : int;
}

let default_config =
  {
    window = 64;
    ack_delay_ns = 20_000;
    (* Initial value and floor of the adaptive estimate; the estimator
       learns the real ack round trip per channel — including
       injection-port queueing behind send bursts, which can reach
       millisecond scale — so a retransmission means the network actually
       lost something. *)
    rto_ns = 200_000;
    backoff = 2;
    max_rto_ns = 5_000_000;
    max_retries = 64;
  }

type frame = { fr_seq : int; fr_ack : int; fr_data : Am.t option }

(* One word of sequence number, one of cumulative ack. *)
let frame_bytes = 8

type tx = {
  mutable next_seq : int;
  mutable base : int;  (** lowest unacknowledged sequence number *)
  inflight : (int, Am.t * Simcore.Time.t * bool) Hashtbl.t;
      (** seq -> (message, eta, sample_ok). [eta] is the frame's
          estimated fault-free arrival at the peer — the push instant
          until {!note_eta} refines it with the fabric's answer, which
          accounts for injection-queueing behind send bursts. The
          retransmission deadline and RTT samples are anchored on it.
          [sample_ok] goes false once the frame is retransmitted: its
          ack is then ambiguous and yields no sample (Karn). *)
  backlog : Am.t Queue.t;
  mutable rto : int;
  mutable deadline : Simcore.Time.t;  (** when the base frame times out *)
  mutable timer_armed : bool;  (** a timer event is in the engine queue *)
  mutable retries : int;  (** consecutive retransmissions of [base] *)
  mutable srtt : int;  (** smoothed RTT estimate; -1 before any sample *)
  mutable rttvar : int;
}

type rx = {
  mutable expected : int;  (** next in-order sequence number *)
  reorder : (int, Am.t) Hashtbl.t;
  mutable ack_due : Simcore.Time.t;  (** pending standalone ack; max_int = none *)
}

(* Stable-store journal hooks: a recovery manager mirrors every
   sequence-state mutation into simulated stable storage the instant it
   happens (pessimistic logging), so a crashed node's channel registers
   are reconstructible. The protocol itself never reads the journal. *)
type journal = {
  j_sent : src:int -> dst:int -> seq:int -> Am.t -> unit;
  j_queued : src:int -> dst:int -> Am.t -> unit;
  j_acked : src:int -> dst:int -> base:int -> unit;
  j_released : src:int -> dst:int -> expected:int -> unit;
}

type t = {
  cfg : config;
  nodes : int;
  (* Channel state is preallocated for every (src, dst) pair rather than
     created lazily on first use: a parallel run then only ever mutates
     the per-channel records (each touched by a single domain — the
     tx side by the sender's, the rx side by the receiver's), never a
     shared table. *)
  txs : tx array;  (** indexed by src * nodes + dst *)
  rxs : rx array;  (** indexed by src * nodes + dst *)
  mutable journal : journal option;
  acks_piggybacked : int array;
      (** pending standalone acks cancelled because outgoing data (a
          frame or a flushed batch) carried the cumulative ack instead;
          per sending node *)
}

let fresh_tx cfg =
  {
    next_seq = 0;
    base = 0;
    inflight = Hashtbl.create 8;
    backlog = Queue.create ();
    rto = cfg.rto_ns;
    deadline = max_int;
    timer_armed = false;
    retries = 0;
    srtt = -1;
    rttvar = 0;
  }

let fresh_rx () = { expected = 0; reorder = Hashtbl.create 8; ack_due = max_int }

let create ?(config = default_config) ~nodes () =
  if config.window < 1 then invalid_arg "Reliable.create: window must be >= 1";
  if config.backoff < 1 then invalid_arg "Reliable.create: backoff must be >= 1";
  {
    cfg = config;
    nodes;
    txs = Array.init (nodes * nodes) (fun _ -> fresh_tx config);
    rxs = Array.init (nodes * nodes) (fun _ -> fresh_rx ());
    journal = None;
    acks_piggybacked = Array.make nodes 0;
  }

let config t = t.cfg
let set_journal t j = t.journal <- j

let key t src dst = (src * t.nodes) + dst

let tx_of t ~src ~dst = t.txs.(key t src dst)
let rx_of t ~src ~dst = t.rxs.(key t src dst)

(* Cumulative ack the [me] side owes for traffic arriving from [peer].
   A pending standalone ack is suppressed only when the carrying frame
   reaches the wire no later than the ack deadline: a sending slice may
   run with its node clock far ahead of the frames it is acknowledging
   (optimistic per-node time), and cancelling the prompt standalone ack
   in favour of a far-future data frame would stall the peer's window
   into a spurious retransmission. *)
let take_piggyback t ~me ~peer ~now =
  let rx = rx_of t ~src:peer ~dst:me in
  if now <= rx.ack_due then begin
    if rx.ack_due <> max_int then
      t.acks_piggybacked.(me) <- t.acks_piggybacked.(me) + 1;
    rx.ack_due <- max_int
  end;
  rx.expected - 1

(* --- sender side --- *)

(* Adaptive retransmission timeout (RFC 6298 shape): smoothed RTT plus
   four deviations, floored at the configured initial RTO and capped at
   the backoff ceiling. Channels whose acks queue behind send bursts
   learn a proportionally lazier timer instead of retransmitting data
   the network never lost. *)
let current_rto t tx =
  if tx.srtt < 0 then t.cfg.rto_ns
  else
    min t.cfg.max_rto_ns (max t.cfg.rto_ns (tx.srtt + (4 * tx.rttvar)))

(* Observes the ack turnaround beyond the acked frame's arrival estimate
   (delayed-ack wait + return transit + jitter — the part the timeout
   must out-wait once the deadline is anchored on the eta). Returns
   whether a valid sample was taken: retransmitted frames are ambiguous
   and yield none (Karn). *)
let observe_rtt tx ~ack ~now =
  match Hashtbl.find_opt tx.inflight ack with
  | Some (_, eta, true) when now >= eta ->
      let rtt = now - eta in
      if tx.srtt < 0 then begin
        tx.srtt <- rtt;
        tx.rttvar <- rtt / 2
      end
      else begin
        tx.rttvar <- ((3 * tx.rttvar) + abs (tx.srtt - rtt)) / 4;
        tx.srtt <- ((7 * tx.srtt) + rtt) / 8
      end;
      true
  | _ -> false

(* Restart the timeout clock for the (new) base frame: its eta plus the
   current timeout, so time spent queueing at the source NIC is never
   counted against the network. *)
let rearm_for_base tx ~now =
  if Hashtbl.length tx.inflight = 0 then tx.deadline <- max_int
  else
    match Hashtbl.find_opt tx.inflight tx.base with
    | Some (_, eta, _) -> tx.deadline <- max eta now + tx.rto
    | None -> tx.deadline <- now + tx.rto

let push t ~src ~dst ~now am =
  let tx = tx_of t ~src ~dst in
  if Hashtbl.length tx.inflight >= t.cfg.window then begin
    Queue.push am tx.backlog;
    (match t.journal with Some j -> j.j_queued ~src ~dst am | None -> ());
    `Queued
  end
  else begin
    let seq = tx.next_seq in
    tx.next_seq <- seq + 1;
    Hashtbl.replace tx.inflight seq (am, now, true);
    (match t.journal with Some j -> j.j_sent ~src ~dst ~seq am | None -> ());
    (* First frame of an idle period: (re)start the timeout clock. The
       push instant stands in for the eta until {!note_eta} refines it. *)
    if tx.deadline = max_int then tx.deadline <- now + tx.rto;
    `Send { fr_seq = seq; fr_ack = take_piggyback t ~me:src ~peer:dst ~now; fr_data = Some am }
  end

let note_eta t ~src ~dst ~seq ~eta =
  let tx = tx_of t ~src ~dst in
  match Hashtbl.find_opt tx.inflight seq with
  | None -> () (* acked in the meantime — nothing left to time out *)
  | Some (am, _, ok) ->
      Hashtbl.replace tx.inflight seq (am, eta, ok);
      if seq = tx.base then begin
        let d = eta + tx.rto in
        if tx.deadline = max_int || d > tx.deadline then tx.deadline <- d
      end

let on_ack t ~src ~dst ~ack ~now =
  let tx = tx_of t ~src ~dst in
  if ack < tx.base then []
  else begin
    let sampled = observe_rtt tx ~ack ~now in
    for seq = tx.base to ack do
      Hashtbl.remove tx.inflight seq
    done;
    tx.base <- ack + 1;
    (match t.journal with
    | Some j -> j.j_acked ~src ~dst ~base:tx.base
    | None -> ());
    tx.retries <- 0;
    (* Progress restarts the timeout for the new oldest frame — but only
       a valid sample may relax a backed-off RTO (the second half of
       Karn's algorithm). While the floor sits below the channel's true
       round trip, every frame is retransmitted exactly once and every
       ack is ambiguous; keeping the doubled RTO lets a later frame
       survive to an unambiguous ack, which re-seeds the estimator. *)
    if sampled then tx.rto <- current_rto t tx;
    rearm_for_base tx ~now;
    (* Partial-ack recovery (NewReno shape): progress without a valid
       RTT sample means this ack answered a retransmission — the
       channel is recovering from loss, and under go-back-N the frames
       behind the repaired hole usually died with it (a crash window
       kills a whole flight). Waiting out the backed-off RTO for each
       one would drain the window at one frame per timeout; instead the
       ack clocks out the new base immediately, at the cost of one
       duplicate frame when the ack was merely late. *)
    let fast =
      if (not sampled) && Hashtbl.length tx.inflight > 0 then
        match Hashtbl.find_opt tx.inflight tx.base with
        | Some (am, _, _) ->
            Hashtbl.replace tx.inflight tx.base (am, now, false);
            tx.deadline <- now + tx.rto;
            [
              {
                fr_seq = tx.base;
                fr_ack = take_piggyback t ~me:src ~peer:dst ~now;
                fr_data = Some am;
              };
            ]
        | None -> []
      else []
    in
    (* Release backlog into the freed window, in order. *)
    let rec drain acc =
      if Queue.is_empty tx.backlog || Hashtbl.length tx.inflight >= t.cfg.window
      then List.rev acc
      else begin
        let am = Queue.pop tx.backlog in
        let seq = tx.next_seq in
        tx.next_seq <- seq + 1;
        Hashtbl.replace tx.inflight seq (am, now, true);
        (match t.journal with
        | Some j -> j.j_sent ~src ~dst ~seq am
        | None -> ());
        if tx.deadline = max_int then tx.deadline <- now + tx.rto;
        drain
          ({ fr_seq = seq; fr_ack = take_piggyback t ~me:src ~peer:dst ~now; fr_data = Some am }
          :: acc)
      end
    in
    fast @ drain []
  end

let timer_request t ~src ~dst ~now =
  let tx = tx_of t ~src ~dst in
  if tx.timer_armed || Hashtbl.length tx.inflight = 0 then None
  else begin
    tx.timer_armed <- true;
    if tx.deadline = max_int then tx.deadline <- now + tx.rto;
    Some tx.deadline
  end

let on_timer t ~src ~dst ~now =
  let tx = tx_of t ~src ~dst in
  tx.timer_armed <- false;
  if Hashtbl.length tx.inflight = 0 then `Idle
  else if tx.deadline = max_int then begin
    (* Should not happen (push always stamps a deadline), but never
       schedule a timer at infinity. *)
    tx.deadline <- now + tx.rto;
    tx.timer_armed <- true;
    `Wait tx.deadline
  end
  else if now < tx.deadline then begin
    tx.timer_armed <- true;
    `Wait tx.deadline
  end
  else begin
    tx.retries <- tx.retries + 1;
    if tx.retries > t.cfg.max_retries then
      failwith
        (Printf.sprintf
           "Reliable: channel %d->%d gave up after %d retransmissions (seq %d)"
           src dst t.cfg.max_retries tx.base);
    let am =
      match Hashtbl.find_opt tx.inflight tx.base with
      | Some (am, _, _) -> am
      | None -> assert false (* base is unacked by definition *)
    in
    (* Karn's rule: a retransmitted frame can never yield an RTT sample
       (an eventual ack is ambiguous about which copy it answers). The
       caller's note_eta for the new copy re-anchors the deadline. *)
    Hashtbl.replace tx.inflight tx.base (am, now, false);
    tx.rto <- min (tx.rto * t.cfg.backoff) t.cfg.max_rto_ns;
    tx.deadline <- now + tx.rto;
    tx.timer_armed <- true;
    ( `Retransmit
        ( {
            fr_seq = tx.base;
            fr_ack = take_piggyback t ~me:src ~peer:dst ~now;
            fr_data = Some am;
          },
          tx.deadline ) )
  end

(* --- receiver side --- *)

let on_data t ~src ~dst ~seq am =
  let rx = rx_of t ~src ~dst in
  if seq < rx.expected then `Duplicate
  else if seq > rx.expected then
    (* A frame already waiting in the reorder buffer is a duplicate too. *)
    if Hashtbl.mem rx.reorder seq then `Duplicate
    else begin
      Hashtbl.add rx.reorder seq am;
      `Reordered
    end
  else begin
    rx.expected <- rx.expected + 1;
    let rec release acc =
      match Hashtbl.find_opt rx.reorder rx.expected with
      | Some am' ->
          Hashtbl.remove rx.reorder rx.expected;
          rx.expected <- rx.expected + 1;
          release (am' :: acc)
      | None -> List.rev acc
    in
    let ams = am :: release [] in
    (match t.journal with
    | Some j -> j.j_released ~src ~dst ~expected:rx.expected
    | None -> ());
    `Deliver ams
  end

let ack_needed t ~me ~peer ~now =
  let rx = rx_of t ~src:peer ~dst:me in
  if rx.ack_due <> max_int then None
  else begin
    rx.ack_due <- now + t.cfg.ack_delay_ns;
    Some rx.ack_due
  end

let on_ack_timer t ~me ~peer =
  let rx = rx_of t ~src:peer ~dst:me in
  if rx.ack_due = max_int then None
  else begin
    rx.ack_due <- max_int;
    Some { fr_seq = -1; fr_ack = rx.expected - 1; fr_data = None }
  end

(* --- introspection --- *)

let in_flight t =
  Array.fold_left
    (fun acc tx -> acc + Hashtbl.length tx.inflight + Queue.length tx.backlog)
    0 t.txs

let reorder_buffered t =
  Array.fold_left (fun acc rx -> acc + Hashtbl.length rx.reorder) 0 t.rxs

(* Only channels that carried traffic, in (src, dst) order — preallocated
   pristine channels are invisible, matching the old lazy table. *)
let channel_states t =
  let acc = ref [] in
  for key = Array.length t.txs - 1 downto 0 do
    let tx = t.txs.(key) in
    if
      tx.next_seq > 0 || tx.base > 0
      || Hashtbl.length tx.inflight > 0
      || Queue.length tx.backlog > 0
    then
      acc :=
        ( key / t.nodes,
          key mod t.nodes,
          tx.next_seq,
          tx.base,
          Hashtbl.length tx.inflight,
          Queue.length tx.backlog )
        :: !acc
  done;
  !acc

let rx_expected t ~src ~dst = t.rxs.(key t src dst).expected

let resent t ~src ~dst ~seq =
  match Hashtbl.find_opt (tx_of t ~src ~dst).inflight seq with
  | Some (_, _, sample_ok) -> not sample_ok
  | None -> false

let node_acks_piggybacked t node = t.acks_piggybacked.(node)
