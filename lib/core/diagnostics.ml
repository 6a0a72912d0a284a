type stuck = {
  addr : Value.addr;
  cls_name : string;
  mode : string;
  waiting_for : string option;
  queued_messages : int;
}

type report = {
  blocked : stuck list;
  buffered : stuck list;
  chunk_waiters : int;
  stock_refills : int;
  stock_low_water : int;
  in_flight : int;
  packets_dropped : int;
  batches_sent : int;
  coalesce_buffered : int;
  crashes : int;
  checkpoint_bytes : int;
  log_replayed : int;
  recovery_ns : int;
  forwarding_stubs : (int * int) list;
  forwarded_hops : (int * int) list;
}

let reason_string = function
  | Kernel.Wait_reply rd ->
      Format.asprintf "a now-type reply (destination %a)" Value.pp_addr
        rd.Kernel.self
  | Kernel.Wait_patterns patterns ->
      Format.asprintf "messages [%s]"
        (String.concat "; " (List.map Pattern.name patterns))
  | Kernel.Wait_chunk node -> Printf.sprintf "a chunk on node %d" node
  | Kernel.Preempted -> "rescheduling after preemption"

let stuck_of_obj (obj : Kernel.obj) =
  (* A reply destination parks the *sender's* context; attribute the wait
     to the suspended object, not to the mailbox holding it. *)
  let subject =
    match obj.blocked with
    | Some b when b.Kernel.owner != obj -> b.Kernel.owner
    | _ -> obj
  in
  {
    addr = subject.Kernel.self;
    cls_name =
      (match subject.Kernel.cls with
      | Some c -> c.Kernel.cls_name
      | None -> "<chunk>");
    mode = Vft.kind_name subject.Kernel.vftp.Kernel.vft_kind;
    waiting_for = Option.map (fun b -> reason_string b.Kernel.why) obj.blocked;
    queued_messages = Queue.length subject.Kernel.mq;
  }

let by_addr a b =
  compare (a.addr.Value.node, a.addr.Value.slot) (b.addr.Value.node, b.addr.Value.slot)

let survey sys =
  let machine = System.machine sys in
  let stats = Machine.Engine.stats machine in
  let blocked = ref [] and buffered = ref [] and chunk_waiters = ref 0 in
  let stubs = ref [] and hops = ref [] in
  let low_water = ref max_int in
  for node = 0 to System.node_count sys - 1 do
    let rt = System.rt sys node in
    chunk_waiters := !chunk_waiters + List.length rt.Kernel.chunk_waiters;
    if rt.Kernel.stock_low_water < !low_water then
      low_water := rt.Kernel.stock_low_water;
    let node_stubs = ref 0 in
    Hashtbl.iter
      (fun _slot (obj : Kernel.obj) ->
        match obj.Kernel.vftp.Kernel.vft_kind with
        | Kernel.Vft_forward _ ->
            (* A forwarding stub is healthy residue of migration, not
               stuck work: its queue was carried to the new home. *)
            incr node_stubs
        | _ ->
            if Option.is_some obj.blocked then
              blocked := stuck_of_obj obj :: !blocked
            else if (not (Queue.is_empty obj.mq)) && not obj.in_sched_q then
              buffered := stuck_of_obj obj :: !buffered)
      rt.Kernel.objects;
    if !node_stubs > 0 then stubs := (node, !node_stubs) :: !stubs;
    let h =
      Simcore.Stats.get stats (Printf.sprintf "migrate.forward.node%d" node)
    in
    if h > 0 then hops := (node, h) :: !hops
  done;
  {
    blocked = List.sort by_addr !blocked;
    buffered = List.sort by_addr !buffered;
    chunk_waiters = !chunk_waiters;
    stock_refills = Simcore.Stats.get stats "chunk.refill";
    stock_low_water = (if !low_water = max_int then 0 else !low_water);
    in_flight = Machine.Engine.reliable_in_flight machine;
    packets_dropped = Machine.Engine.packets_dropped machine;
    batches_sent =
      (match Machine.Engine.coalesce_stats machine with
      | Some s -> s.Machine.Coalesce.s_batches
      | None -> 0);
    coalesce_buffered = Machine.Engine.coalesce_buffered machine;
    crashes = Simcore.Stats.get stats "recover.crashes";
    checkpoint_bytes = Simcore.Stats.get stats "recover.ckpt_bytes";
    log_replayed = Simcore.Stats.get stats "recover.replayed";
    recovery_ns = Simcore.Stats.get stats "recover.recovery_ns";
    forwarding_stubs = List.rev !stubs;
    forwarded_hops = List.rev !hops;
  }

let is_clean r =
  r.blocked = [] && r.buffered = [] && r.chunk_waiters = 0 && r.in_flight = 0
  && r.coalesce_buffered = 0

let pp_stuck ppf s =
  Format.fprintf ppf "%a %s [%s]%s%s" Value.pp_addr s.addr s.cls_name s.mode
    (match s.waiting_for with
    | Some w -> ", waiting for " ^ w
    | None -> "")
    (if s.queued_messages > 0 then
       Printf.sprintf ", %d buffered message(s)" s.queued_messages
     else "")

let pp_migration ppf r =
  if r.forwarding_stubs <> [] then
    Format.fprintf ppf "@,forwarding stubs: %s"
      (String.concat ", "
         (List.map
            (fun (n, c) -> Printf.sprintf "node %d: %d" n c)
            r.forwarding_stubs));
  if r.forwarded_hops <> [] then
    Format.fprintf ppf "@,forwarded hops: %s"
      (String.concat ", "
         (List.map
            (fun (n, c) -> Printf.sprintf "node %d: %d" n c)
            r.forwarded_hops));
  if r.batches_sent > 0 then
    Format.fprintf ppf "@,aggregated batches: %d" r.batches_sent;
  if r.crashes > 0 then
    Format.fprintf ppf
      "@,crash recovery: %d crash(es), %d checkpoint bytes, %d message(s) \
       replayed, %a recovering"
      r.crashes r.checkpoint_bytes r.log_replayed Simcore.Time.pp
      r.recovery_ns

let pp ppf r =
  if is_clean r then begin
    (if r.packets_dropped = 0 then
       Format.fprintf ppf "clean: no residual work"
     else
       Format.fprintf ppf
         "clean: no residual work (%d dropped packet(s), all repaired by \
          retransmission)"
         r.packets_dropped);
    Format.fprintf ppf "@[<v>%a@]" pp_migration r
  end
  else begin
    Format.fprintf ppf "@[<v>";
    if r.blocked <> [] then begin
      Format.fprintf ppf "suspended contexts:@,";
      List.iter (fun s -> Format.fprintf ppf "  %a@," pp_stuck s) r.blocked
    end;
    if r.buffered <> [] then begin
      Format.fprintf ppf "unconsumed messages:@,";
      List.iter (fun s -> Format.fprintf ppf "  %a@," pp_stuck s) r.buffered
    end;
    if r.chunk_waiters > 0 then
      Format.fprintf ppf
        "%d context(s) stalled on chunk stocks (%d refill(s), low water %d)@,"
        r.chunk_waiters r.stock_refills r.stock_low_water;
    if r.in_flight > 0 then
      Format.fprintf ppf
        "%d message(s) lost in flight (unacknowledged at quiescence)@,"
        r.in_flight;
    if r.coalesce_buffered > 0 then
      Format.fprintf ppf
        "%d message(s) still parked in aggregation buffers (no idle or \
         deadline flush reached them)@,"
        r.coalesce_buffered;
    pp_migration ppf r;
    Format.fprintf ppf "@]"
  end
