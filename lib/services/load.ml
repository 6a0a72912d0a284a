module Engine = Machine.Engine

type Machine.Am.payload += P_load of { load : int; ma_depth : int }

type t = {
  system : Core.System.t;
  handler : int;
  (* tables.(n) maps peer node id -> last load heard by node n *)
  tables : (int, int) Hashtbl.t array;
  (* ma_tables.(n) maps peer node id -> last activation-queue depth *)
  ma_tables : (int, int) Hashtbl.t array;
  (* A sharded Stats cell, not a mutable field: [broadcast] runs from
     application contexts on any node, so under [System.run_parallel]
     a plain counter would be racy. *)
  c_broadcasts : Simcore.Stats.cell;
}

let local_load_of_node node =
  Machine.Node.runq_size node + Machine.Node.inbox_size node

let local_load t ~node =
  local_load_of_node (Engine.node (Core.System.machine t.system) node)

(* The deepest multiactive activation queue of any object on the node:
   work that is *behind one object's admission control*, as opposed to
   [local_load]'s node-wide queues. A node can be hot because one
   serialized object is a bottleneck (high depth, modest load) or hot
   because it simply hosts a lot of work (high load, zero depth) —
   migration policies need the distinction to know whether moving the
   object would help. *)
let local_ma_depth t ~node =
  Multiactive.max_queue_depth_on_node (Core.System.rt t.system node)

let broadcast_node t ~node:my_id =
  let machine = Core.System.machine t.system in
  let node = Engine.node machine my_id in
  let load = local_load_of_node node in
  let ma_depth = local_ma_depth t ~node:my_id in
  let cost = Engine.cost machine in
  List.iter
    (fun peer ->
      Engine.charge machine node cost.Machine.Cost_model.msg_setup_send;
      Engine.send_am machine ~src:node ~dst:peer ~handler:t.handler
        ~size_bytes:8
        (P_load { load; ma_depth }))
    (Network.Topology.neighbors (Engine.topology machine) my_id);
  Simcore.Stats.bump t.c_broadcasts

let broadcast t ctx = broadcast_node t ~node:(Core.Ctx.node_id ctx)

(* Periodic auto-gossip (rt_config.gossip_interval_ns): every node
   re-broadcasts its load once per round. *)
let arm_auto_gossip t =
  let interval_ns =
    (Core.System.config t.system).Core.Kernel.gossip_interval_ns
  in
  if interval_ns > 0 then
    Rounds.arm (Core.System.machine t.system) ~interval_ns (fun ~node ->
        broadcast_node t ~node)

let attach system =
  let machine = Core.System.machine system in
  let tables =
    Array.init (Engine.node_count machine) (fun _ -> Hashtbl.create 8)
  in
  let ma_tables =
    Array.init (Engine.node_count machine) (fun _ -> Hashtbl.create 8)
  in
  let handle _machine node am =
    match am.Machine.Am.payload with
    | P_load { load; ma_depth } ->
        let me = Machine.Node.id node in
        Hashtbl.replace tables.(me) am.Machine.Am.src load;
        Hashtbl.replace ma_tables.(me) am.Machine.Am.src ma_depth
    | _ -> assert false
  in
  let handler =
    Engine.register_handler machine Machine.Am.Service ~name:"load-gossip"
      handle
  in
  let t =
    {
      system;
      handler;
      tables;
      ma_tables;
      c_broadcasts =
        Simcore.Stats.counter (Core.System.stats system) "gossip.broadcasts";
    }
  in
  arm_auto_gossip t;
  t

let known_load_opt t ~node ~about =
  if node = about then Some (local_load t ~node)
  else Hashtbl.find_opt t.tables.(node) about

let known_load t ~node ~about =
  Option.value (known_load_opt t ~node ~about) ~default:0

let known_ma_depth_opt t ~node ~about =
  if node = about then Some (local_ma_depth t ~node)
  else Hashtbl.find_opt t.ma_tables.(node) about

let known_ma_depth t ~node ~about =
  Option.value (known_ma_depth_opt t ~node ~about) ~default:0

(* One line per node: its own instantaneous load and deepest
   activation queue, plus what its neighbours last told it. *)
let report t =
  let machine = Core.System.machine t.system in
  let buf = Buffer.create 256 in
  for n = 0 to Engine.node_count machine - 1 do
    Buffer.add_string buf
      (Printf.sprintf "node %d: load=%d ma_depth=%d" n (local_load t ~node:n)
         (local_ma_depth t ~node:n));
    let peers =
      List.sort compare
        (Network.Topology.neighbors (Engine.topology machine) n)
    in
    List.iter
      (fun p ->
        match known_load_opt t ~node:n ~about:p with
        | None -> Buffer.add_string buf (Printf.sprintf " [%d:?]" p)
        | Some l ->
            Buffer.add_string buf
              (Printf.sprintf " [%d:%d/%d]" p l (known_ma_depth t ~node:n ~about:p)))
      peers;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let pick_least_for t ~node:my_id =
  let machine = Core.System.machine t.system in
  let candidates =
    my_id :: Network.Topology.neighbors (Engine.topology machine) my_id
  in
  (* A neighbour we never heard from is *unknown*, not load 0 — reading
     it as 0 would make every cold node a magnet for all placements. The
     fold falls back to self when no neighbour has gossiped yet. *)
  let best =
    List.fold_left
      (fun acc candidate ->
        match known_load_opt t ~node:my_id ~about:candidate with
        | None -> acc
        | Some load -> min acc (load, candidate))
      (local_load t ~node:my_id, my_id)
      candidates
  in
  snd best

let deferred_placement () =
  let cell = ref None in
  let pick my_id =
    match !cell with
    | Some t -> pick_least_for t ~node:my_id
    | None -> my_id
  in
  (Core.Kernel.Custom_policy pick, fun t -> cell := Some t)

let broadcasts t = Simcore.Stats.read t.c_broadcasts
