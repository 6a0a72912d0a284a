open Core

type op = Get | Put | Cas | Mget

let op_code = function Get -> 0 | Put -> 1 | Cas -> 2 | Mget -> 3

type stats = {
  mutable get_ok : int;
  mutable put_ok : int;
  mutable cas_ok : int;
  mutable cas_fail : int;
  mutable mget_ok : int;
  mutable dup_resps : int;
  latency : Simcore.Histogram.t;
}

type pend = { p_t0 : int; p_kind : int; mutable p_need : int }

(* Request bookkeeping lives OCaml-side in the client closures — but a
   client runs on its own node, and under [System.run_parallel] nodes on
   different domains execute concurrently. So the bookkeeping is
   per-node (one record per client, indexed by the client's node), and
   readers fold the records with order-insensitive merges. *)
type client_state = {
  cs_stats : stats;
  cs_pendings : (int, pend) Hashtbl.t;
  cs_last_seen : (int, int) Hashtbl.t;
  mutable cs_started : int;
}

type t = {
  n_shards : int;
  keyspace : int;
  fan : int;
  mutable per_node : client_state array;
  mutable shard_addrs : Value.addr array;
  mutable client_addrs : Value.addr array;
  mutable shard_cls : Kernel.cls;
  mutable client_cls : Kernel.cls;
}

(* Modelled per-operation work on a shard (it sets the capacity a rate
   sweep saturates) and on a client, and the latency histogram's bucket
   width. *)
let service_instr = 200
let client_instr = 30
let latency_bucket_ns = 500

let fresh_stats () =
  {
    get_ok = 0;
    put_ok = 0;
    cas_ok = 0;
    cas_fail = 0;
    mget_ok = 0;
    dup_resps = 0;
    latency = Simcore.Histogram.create ~bucket_width:latency_bucket_ns ();
  }

let client_state_of t ctx = t.per_node.((Ctx.self ctx).Value.node)

let p_op = Pattern.intern "tr_op" ~arity:4
let p_get = Pattern.intern "kv_get" ~arity:3
let p_put = Pattern.intern "kv_put" ~arity:4
let p_cas = Pattern.intern "kv_cas" ~arity:5
let p_resp = Pattern.intern "kv_resp" ~arity:6

(* Shard table entries are (key, value, version) tuples in Value state,
   so the whole table serializes through the codec: a shard can migrate
   (or checkpoint) mid-run without special-casing. *)
let entry k v ver = Value.Tuple [ Value.int k; Value.int v; Value.int ver ]

let entry_parts = function
  | Value.Tuple [ Value.Int k; Value.Int v; Value.Int ver ] -> (k, v, ver)
  | _ -> invalid_arg "Kv_store: corrupt shard table entry"

let table ctx = Value.to_list (Ctx.get ctx 0)

let find_entry tbl key =
  List.find_map
    (fun e ->
      let k, v, ver = entry_parts e in
      if k = key then Some (v, ver) else None)
    tbl

let store_entry ctx key v ver =
  let rest =
    List.filter (fun e -> let k, _, _ = entry_parts e in k <> key) (table ctx)
  in
  Ctx.set ctx 0 (Value.List (entry key v ver :: rest))

let respond ctx ~client ~req_id ~kind ~key ~value ~version ~ok =
  Ctx.send ctx client p_resp
    [
      Value.int req_id;
      Value.int kind;
      Value.int key;
      Value.int value;
      Value.int version;
      Value.int (if ok then 1 else 0);
    ]

let shard_cls_def () =
  Class_def.define ~name:"kv_shard" ~state:[| "table" |]
    ~init:(fun _ -> [| Value.List [] |])
    ~methods:
      [
        ( p_get,
          fun ctx msg ->
            Ctx.charge ctx service_instr;
            let key = Value.to_int (Message.arg msg 0) in
            let client = Value.to_addr (Message.arg msg 1) in
            let req_id = Value.to_int (Message.arg msg 2) in
            let value, version, ok =
              match find_entry (table ctx) key with
              | Some (v, ver) -> (v, ver, true)
              | None -> (0, 0, false)
            in
            respond ctx ~client ~req_id ~kind:(op_code Get) ~key ~value
              ~version ~ok );
        ( p_put,
          fun ctx msg ->
            Ctx.charge ctx service_instr;
            let key = Value.to_int (Message.arg msg 0) in
            let value = Value.to_int (Message.arg msg 1) in
            let client = Value.to_addr (Message.arg msg 2) in
            let req_id = Value.to_int (Message.arg msg 3) in
            let version =
              match find_entry (table ctx) key with
              | Some (_, ver) -> ver + 1
              | None -> 1
            in
            store_entry ctx key value version;
            respond ctx ~client ~req_id ~kind:(op_code Put) ~key ~value
              ~version ~ok:true );
        ( p_cas,
          fun ctx msg ->
            Ctx.charge ctx service_instr;
            let key = Value.to_int (Message.arg msg 0) in
            let expect = Value.to_int (Message.arg msg 1) in
            let value = Value.to_int (Message.arg msg 2) in
            let client = Value.to_addr (Message.arg msg 3) in
            let req_id = Value.to_int (Message.arg msg 4) in
            let cur_v, cur_ver =
              match find_entry (table ctx) key with
              | Some (v, ver) -> (v, ver)
              | None -> (0, 0)
            in
            if cur_ver = expect then begin
              store_entry ctx key value (cur_ver + 1);
              respond ctx ~client ~req_id ~kind:(op_code Cas) ~key ~value
                ~version:(cur_ver + 1) ~ok:true
            end
            else
              respond ctx ~client ~req_id ~kind:(op_code Cas) ~key
                ~value:cur_v ~version:cur_ver ~ok:false );
      ]
    ()

let shard_of t key = t.shard_addrs.(key mod t.n_shards)

let client_cls_def t =
  Class_def.define ~name:"kv_client" ~state:[||]
    ~init:(fun _ -> [||])
    ~methods:
      [
        ( p_op,
          fun ctx msg ->
            Ctx.charge ctx client_instr;
            let kind = Value.to_int (Message.arg msg 0) in
            let key = Value.to_int (Message.arg msg 1) in
            let t0 = Value.to_int (Message.arg msg 2) in
            let req_id = Value.to_int (Message.arg msg 3) in
            let self = Value.Addr (Ctx.self ctx) in
            let cs = client_state_of t ctx in
            cs.cs_started <- cs.cs_started + 1;
            if kind = op_code Mget then begin
              Hashtbl.replace cs.cs_pendings req_id
                { p_t0 = t0; p_kind = kind; p_need = t.fan };
              for j = 0 to t.fan - 1 do
                let kj = (key + j) mod t.keyspace in
                Ctx.send ctx (shard_of t kj) p_get
                  [ Value.int kj; self; Value.int req_id ]
              done
            end
            else begin
              Hashtbl.replace cs.cs_pendings req_id
                { p_t0 = t0; p_kind = kind; p_need = 1 };
              if kind = op_code Get then
                Ctx.send ctx (shard_of t key) p_get
                  [ Value.int key; self; Value.int req_id ]
              else if kind = op_code Put then
                Ctx.send ctx (shard_of t key) p_put
                  [ Value.int key; Value.int (req_id land 0xffff); self;
                    Value.int req_id ]
              else
                let expect =
                  Option.value
                    (Hashtbl.find_opt cs.cs_last_seen key)
                    ~default:0
                in
                Ctx.send ctx (shard_of t key) p_cas
                  [ Value.int key; Value.int expect;
                    Value.int (req_id land 0xffff); self; Value.int req_id ]
            end );
        ( p_resp,
          fun ctx msg ->
            Ctx.charge ctx client_instr;
            let req_id = Value.to_int (Message.arg msg 0) in
            let key = Value.to_int (Message.arg msg 2) in
            let version = Value.to_int (Message.arg msg 4) in
            let ok = Value.to_int (Message.arg msg 5) = 1 in
            let cs = client_state_of t ctx in
            match Hashtbl.find_opt cs.cs_pendings req_id with
            | None -> cs.cs_stats.dup_resps <- cs.cs_stats.dup_resps + 1
            | Some p ->
                (* A failed CAS reports the current version, so remember
                   it either way: the next CAS on this key races from
                   fresh information. *)
                Hashtbl.replace cs.cs_last_seen key version;
                p.p_need <- p.p_need - 1;
                if p.p_need = 0 then begin
                  Hashtbl.remove cs.cs_pendings req_id;
                  Simcore.Histogram.observe cs.cs_stats.latency
                    (Ctx.now ctx - p.p_t0);
                  if p.p_kind = op_code Get then
                    cs.cs_stats.get_ok <- cs.cs_stats.get_ok + 1
                  else if p.p_kind = op_code Put then
                    cs.cs_stats.put_ok <- cs.cs_stats.put_ok + 1
                  else if p.p_kind = op_code Mget then
                    cs.cs_stats.mget_ok <- cs.cs_stats.mget_ok + 1
                  else if ok then cs.cs_stats.cas_ok <- cs.cs_stats.cas_ok + 1
                  else cs.cs_stats.cas_fail <- cs.cs_stats.cas_fail + 1
                end );
      ]
    ()

let create ?(keys_per_shard = 16) ?(mget_fan = 3) ?(multiactive = false)
    ?(ma_budget = 4) ~shards () =
  if shards < 1 then invalid_arg "Kv_store.create: shards must be >= 1";
  if mget_fan < 1 then invalid_arg "Kv_store.create: mget_fan must be >= 1";
  (* The class methods close over [t], so tie the knot through a
     placeholder (the placeholder class is never registered or used). *)
  let placeholder =
    Class_def.define ~name:"kv_placeholder" ~methods:[] ()
  in
  let t =
    {
      n_shards = shards;
      keyspace = shards * keys_per_shard;
      fan = mget_fan;
      per_node = [||];
      shard_addrs = [||];
      client_addrs = [||];
      shard_cls = placeholder;
      client_cls = placeholder;
    }
  in
  t.shard_cls <- shard_cls_def ();
  t.client_cls <- client_cls_def t;
  if multiactive then begin
    (* Single-writer / multi-reader shards: gets overlap each other
       (and mget fan-out is client-side gets), while put and cas fall
       into implicit singleton groups — serialized against everything,
       themselves included, so version arithmetic stays race-free. *)
    Multiactive.declare t.shard_cls ~budget:ma_budget
      ~groups:[ ("read", [ "kv_get" ]) ]
      ();
    (* Clients only mutate commutative bookkeeping (pending counters,
       order-insensitive sums), so request fan-out and response
       handling may overlap freely. *)
    Multiactive.declare t.client_cls ~budget:ma_budget
      ~groups:[ ("client", [ "tr_op"; "kv_resp" ]) ]
      ()
  end;
  t

let classes t = [ t.shard_cls; t.client_cls ]

let spawn t sys =
  let nodes = System.node_count sys in
  t.per_node <-
    Array.init nodes (fun _ ->
        {
          cs_stats = fresh_stats ();
          cs_pendings = Hashtbl.create 64;
          cs_last_seen = Hashtbl.create 64;
          cs_started = 0;
        });
  t.shard_addrs <-
    Array.init t.n_shards (fun i ->
        System.create_root sys ~node:(i mod nodes) t.shard_cls []);
  t.client_addrs <-
    Array.init nodes (fun node -> System.create_root sys ~node t.client_cls [])

let shards t = t.n_shards
let keyspace t = t.keyspace
let mget_fan t = t.fan
let shard_addr t i = t.shard_addrs.(i)
let client_addr t ~node = t.client_addrs.(node)

(* A merged snapshot: per-node counters summed, per-node latency
   histograms folded into one. Order-insensitive, so the result is the
   same whatever schedule (or domain count) produced the per-node
   records. *)
let stats t =
  let acc = fresh_stats () in
  Array.iter
    (fun cs ->
      let s = cs.cs_stats in
      acc.get_ok <- acc.get_ok + s.get_ok;
      acc.put_ok <- acc.put_ok + s.put_ok;
      acc.cas_ok <- acc.cas_ok + s.cas_ok;
      acc.cas_fail <- acc.cas_fail + s.cas_fail;
      acc.mget_ok <- acc.mget_ok + s.mget_ok;
      acc.dup_resps <- acc.dup_resps + s.dup_resps;
      Simcore.Histogram.merge_into ~into:acc.latency s.latency)
    t.per_node;
  acc

let started t =
  Array.fold_left (fun acc cs -> acc + cs.cs_started) 0 t.per_node

let completed t =
  let s = stats t in
  s.get_ok + s.put_ok + s.cas_ok + s.cas_fail + s.mget_ok

let pending t =
  Array.fold_left
    (fun acc cs -> acc + Hashtbl.length cs.cs_pendings)
    0 t.per_node

(* A shard may have migrated: the record at its canonical address is
   then a forwarding stub, and the live record (same [self], non-forward
   VFT) sits on some other node. *)
let live_state sys addr =
  let nodes = System.node_count sys in
  let rec scan node =
    if node >= nodes then None
    else
      let rt = System.rt sys node in
      let found =
        Hashtbl.fold
          (fun _ (o : Kernel.obj) acc ->
            match acc with
            | Some _ -> acc
            | None ->
                if
                  o.Kernel.self = addr
                  &&
                  match o.Kernel.vftp.Kernel.vft_kind with
                  | Kernel.Vft_forward _ -> false
                  | _ -> true
                then Some o.Kernel.state
                else None)
          rt.Kernel.objects None
      in
      match found with Some s -> Some s | None -> scan (node + 1)
  in
  scan 0

let applied_versions t sys =
  Array.fold_left
    (fun acc addr ->
      match live_state sys addr with
      | Some state ->
          List.fold_left
            (fun acc e ->
              let _, _, ver = entry_parts e in
              acc + ver)
            acc
            (Value.to_list state.(0))
      | None -> acc)
    0 t.shard_addrs

let audit t sys =
  let s = stats t in
  let out = ref [] in
  let add fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  if pending t > 0 then
    add "traffic: %d request(s) started but never completed" (pending t);
  if s.dup_resps > 0 then
    add "traffic: %d reply(ies) for unknown or finished requests" s.dup_resps;
  if started t <> completed t + pending t then
    add "traffic: started %d <> completed %d + pending %d" (started t)
      (completed t) (pending t);
  let applied = applied_versions t sys in
  let writes = s.put_ok + s.cas_ok in
  if applied <> writes then
    add
      "traffic: versions across shards %d <> successful writes %d (a write \
       was lost or applied twice)"
      applied writes;
  Array.iteri
    (fun i addr ->
      if live_state sys addr = None then add "traffic: shard %d has no live record" i)
    t.shard_addrs;
  List.rev !out
