type config = {
  hw_launch_ns : int;
  per_hop_ns : int;
  bytes_per_us : int;
  contention : bool;
}

(* Calibrated so the end-to-end one-way latency of a one-word past-type
   message between adjacent nodes lands on the paper's 8.9 us (the
   software costs contribute ~7.3 us; the rest is "due to hardware,
   roughly 1.5 us each way" — launch plus wire time here). *)
let default_config =
  { hw_launch_ns = 450; per_hop_ns = 20; bytes_per_us = 25; contention = false }

type 'a t = {
  topo : Topology.t;
  config : config;
  faults : Faults.t option;
  (* end of the last injection per source node: models the injection port *)
  injection_free : Simcore.Time.t array;
  (* last delivery time per (src, dst) channel, for FIFO enforcement;
     indexed by src so each sending domain touches only its own table *)
  last_delivery : (int, Simcore.Time.t) Hashtbl.t array;
  (* when each directed link (from_node, to_node) becomes free *)
  link_free : (int * int, Simcore.Time.t) Hashtbl.t;
  (* per source node, so concurrent domains never share a counter; the
     totals are derived by summation on read *)
  packets_by_src : int array;
  bytes_by_src : int array;
  (* lost and duplicated copies, per source node like the counters
     above; [crash_dropped_by_src] holds the subset of the losses caused
     by a crash window rather than by a random per-packet drop draw *)
  dropped_by_src : int array;
  duplicated_by_src : int array;
  crash_dropped_by_src : int array;
}

let create ?(config = default_config) ?faults topo =
  if config.bytes_per_us <= 0 then invalid_arg "Fabric.create: bad bandwidth";
  let n = Topology.node_count topo in
  {
    topo;
    config;
    faults = Option.map (Faults.create ~nodes:n) faults;
    injection_free = Array.make n 0;
    last_delivery = Array.init n (fun _ -> Hashtbl.create 32);
    link_free = Hashtbl.create 256;
    packets_by_src = Array.make n 0;
    bytes_by_src = Array.make n 0;
    dropped_by_src = Array.make n 0;
    duplicated_by_src = Array.make n 0;
    crash_dropped_by_src = Array.make n 0;
  }

let topology t = t.topo
let config t = t.config
let fault_plan t = Option.map Faults.plan_of t.faults
let faults_state t = t.faults

(* Round up: a partial flit still occupies the link for a whole cycle, so
   truncating would under-charge small packets on slow links (with the
   default 25 B/us the division is exact and this changes nothing). *)
let transmission_ns t bytes =
  (bytes * 1_000 + t.config.bytes_per_us - 1) / t.config.bytes_per_us

let transit_time t (p : _ Packet.t) =
  let hops = Topology.hops t.topo p.src p.dst in
  t.config.hw_launch_ns
  + (hops * t.config.per_hop_ns)
  + transmission_ns t (Packet.wire_bytes p)

let send t ~now (p : _ Packet.t) =
  let wire = Packet.wire_bytes p in
  (* Injection port: the source link is busy for the transmission time. *)
  let start = max now t.injection_free.(p.src) in
  let tx = transmission_ns t wire in
  t.injection_free.(p.src) <- start + tx;
  let arrival =
    if not t.config.contention then
      start + tx + t.config.hw_launch_ns
      + (Topology.hops t.topo p.src p.dst * t.config.per_hop_ns)
    else begin
      (* Virtual cut-through: the packet's head advances one per-hop
         delay per link, waiting for each link to be free; each link then
         stays busy for the transmission time behind it. *)
      let head = ref (start + t.config.hw_launch_ns) in
      let prev = ref p.src in
      List.iter
        (fun next ->
          let link = (!prev, next) in
          let free =
            Option.value (Hashtbl.find_opt t.link_free link) ~default:0
          in
          head := max (!head + t.config.per_hop_ns) free;
          Hashtbl.replace t.link_free link (!head + tx);
          prev := next)
        (Topology.route t.topo p.src p.dst);
      !head + tx
    end
  in
  (* FIFO per channel: never deliver before (or at) the previous packet on
     the same (src, dst) pair. *)
  let fifo = t.last_delivery.(p.src) in
  let arrival =
    match Hashtbl.find_opt fifo p.dst with
    | Some prev when arrival <= prev -> prev + 1
    | _ -> arrival
  in
  let arrival = if arrival <= now then now + 1 else arrival in
  Hashtbl.replace fifo p.dst arrival;
  t.packets_by_src.(p.src) <- t.packets_by_src.(p.src) + 1;
  t.bytes_by_src.(p.src) <- t.bytes_by_src.(p.src) + wire;
  arrival

(* Applies a fault fate to a packet whose fault-free arrival would be
   [base]. Jitter lands after any FIFO clamp the caller applied: a faulty
   network may reorder, and re-serialising is the reliable layer's job. *)
let faulty_arrivals t f ~now ~base (p : _ Packet.t) =
  let fate = Faults.fate f ~src:p.src ~dst:p.dst in
  (* Whether a crashed endpoint kills a copy arriving at [at]: the
     source is checked at the send instant, the destination at the
     arrival instant. Distinguished from random drops so recovery can
     attribute losses to the crash itself. *)
  let crash_loss at =
    Faults.crashed f ~node:p.src ~at:now || Faults.crashed f ~node:p.dst ~at
  in
  let drop_one () =
    t.dropped_by_src.(p.src) <- t.dropped_by_src.(p.src) + 1
  in
  let crash_drop () =
    drop_one ();
    t.crash_dropped_by_src.(p.src) <- t.crash_dropped_by_src.(p.src) + 1
  in
  let first = base + fate.Faults.f_jitter in
  let arrivals =
    if fate.Faults.f_drop then begin
      drop_one ();
      []
    end
    else if crash_loss first then begin
      crash_drop ();
      []
    end
    else [ first ]
  in
  if fate.Faults.f_duplicate then begin
    let copy = first + fate.Faults.f_dup_jitter in
    if crash_loss copy then begin
      crash_drop ();
      arrivals
    end
    else begin
      t.duplicated_by_src.(p.src) <- t.duplicated_by_src.(p.src) + 1;
      arrivals @ [ copy ]
    end
  end
  else arrivals

let send_flaky t ~now (p : _ Packet.t) =
  match t.faults with
  | None ->
      let base = send t ~now p in
      (base, [ base ])
  | Some f ->
      (* The packet is injected (and occupies the port / links / channel
         FIFO slot) whether or not it survives: losses happen downstream. *)
      let base = send t ~now p in
      (base, faulty_arrivals t f ~now ~base p)

let send_control t ~now (p : _ Packet.t) =
  let wire = Packet.wire_bytes p in
  t.packets_by_src.(p.src) <- t.packets_by_src.(p.src) + 1;
  t.bytes_by_src.(p.src) <- t.bytes_by_src.(p.src) + wire;
  let base = now + transit_time t p in
  match t.faults with
  | None -> (base, [ base ])
  | Some f -> (base, faulty_arrivals t f ~now ~base p)

let injection_idle t ~node ~now = t.injection_free.(node) <= now

let packets_sent t = Array.fold_left ( + ) 0 t.packets_by_src
let bytes_sent t = Array.fold_left ( + ) 0 t.bytes_by_src

(* The smallest increment {!send} can put between a packet's injection
   instant and its arrival at a *different* node: minimum wire size (a
   bare header), the fixed launch cost, and at least one hop. The FIFO
   and injection-port clamps only push arrivals later. This bound is the
   conservative-parallel-simulation lookahead: a message sent at [now]
   to another node cannot take effect before [now + min_remote_latency]. *)
let min_remote_latency t =
  transmission_ns t Packet.header_bytes
  + t.config.hw_launch_ns + t.config.per_hop_ns
let packets_dropped t = Array.fold_left ( + ) 0 t.dropped_by_src
let packets_duplicated t = Array.fold_left ( + ) 0 t.duplicated_by_src
let crash_dropped t = Array.fold_left ( + ) 0 t.crash_dropped_by_src

let channel_entries t =
  Array.fold_left (fun acc tbl -> acc + Hashtbl.length tbl) 0 t.last_delivery
  + Hashtbl.length t.link_free

let reset t =
  Array.iter Hashtbl.reset t.last_delivery;
  Hashtbl.reset t.link_free;
  Array.fill t.injection_free 0 (Array.length t.injection_free) 0;
  Array.fill t.packets_by_src 0 (Array.length t.packets_by_src) 0;
  Array.fill t.bytes_by_src 0 (Array.length t.bytes_by_src) 0;
  Array.fill t.dropped_by_src 0 (Array.length t.dropped_by_src) 0;
  Array.fill t.duplicated_by_src 0 (Array.length t.duplicated_by_src) 0;
  Array.fill t.crash_dropped_by_src 0 (Array.length t.crash_dropped_by_src) 0
