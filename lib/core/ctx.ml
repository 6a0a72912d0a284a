open Kernel
module Cost_model = Machine.Cost_model

type t = ctx

let self ctx = ctx.self_obj.self
let node_id ctx = Machine.Node.id ctx.rt.node
let node_count ctx = Machine.Engine.node_count (machine ctx.rt)
let now ctx = Machine.Node.now ctx.rt.node

let state ctx =
  let obj = ctx.self_obj in
  if not obj.initialized then
    invalid_arg "Ctx: state accessed before initialisation";
  obj.state

let get ctx i = (state ctx).(i)
let set ctx i v = (state ctx).(i) <- v

let index_of ctx name =
  let names = (obj_class ctx.self_obj).state_names in
  let rec find i =
    if i >= Array.length names then
      invalid_arg (Printf.sprintf "Ctx: no state variable %S" name)
    else if String.equal names.(i) name then i
    else find (i + 1)
  in
  find 0

let get_named ctx name = get ctx (index_of ctx name)
let set_named ctx name v = set ctx (index_of ctx name) v

let send ctx target pattern args =
  Sched.send ctx.rt ~target ~pattern ~args ()

let interned keyword args =
  Pattern.intern keyword ~arity:(List.length args)

let send_kw ctx target keyword args =
  send ctx target (interned keyword args) args

let send_now ctx target pattern args =
  let rt = ctx.rt in
  let rd = Reply.create_dest rt in
  Sched.send rt ~target ~pattern ~args ~reply:rd.self ();
  charge rt (cost rt).Cost_model.reply_check;
  match Reply.take rt rd with
  | Some v ->
      bump (ctrs rt).c_reply_immediate;
      v
  | None -> (
      match Sched.block rt (Wait_reply rd) with
      | R_reply v -> v
      | R_go | R_msg _ -> assert false)

type future = { fut_rd : obj; mutable claimed : bool }

let send_future ctx target pattern args =
  let rt = ctx.rt in
  let rd = Reply.create_dest rt in
  Sched.send rt ~target ~pattern ~args ~reply:rd.self ();
  { fut_rd = rd; claimed = false }

let touch ctx future =
  if future.claimed then invalid_arg "Ctx.touch: future already claimed";
  future.claimed <- true;
  let rt = ctx.rt in
  charge rt (cost rt).Cost_model.reply_check;
  match Reply.take rt future.fut_rd with
  | Some v ->
      bump (ctrs rt).c_reply_immediate;
      v
  | None -> (
      match Sched.block rt (Wait_reply future.fut_rd) with
      | R_reply v -> v
      | R_go | R_msg _ -> assert false)

let future_ready ctx future =
  charge ctx.rt (cost ctx.rt).Cost_model.reply_check;
  (not future.claimed)
  && future.fut_rd.initialized
  && Value.to_bool future.fut_rd.state.(0)

let future_addr future = future.fut_rd.self

let future_of_addr ctx addr =
  let rt = ctx.rt in
  if addr.Value.node <> Machine.Node.id rt.node then
    invalid_arg "Ctx.future_of_addr: reply destination lives on another node";
  match Hashtbl.find_opt rt.objects addr.Value.slot with
  | Some obj when is_reply_dest rt.shared obj -> { fut_rd = obj; claimed = false }
  | Some _ -> invalid_arg "Ctx.future_of_addr: not a reply destination"
  | None -> invalid_arg "Ctx.future_of_addr: unknown or already-claimed future"

let send_inlined ctx cls target pattern args =
  Sched.send_inlined ctx.rt cls ~target ~pattern ~args ()

let send_leaf ctx cls target pattern args =
  Sched.send_optimized ctx.rt cls ~target ~pattern ~args ~known_local:true
    ~leaf:true ~stateless:true ~no_poll:true ()

let reply ctx msg value =
  match msg.Message.reply with
  | Some dest -> send ctx dest Pattern.reply [ value ]
  | None -> bump (ctrs ctx.rt).c_reply_no_dest

let wait_for ctx patterns = Sched.wait_for ctx.rt ctx.self_obj patterns

let wait_for_kw ctx keywords =
  let resolve kw =
    match Pattern.lookup kw with
    | Some p -> p
    | None -> invalid_arg (Printf.sprintf "Ctx.wait_for_kw: unknown pattern %S" kw)
  in
  wait_for ctx (List.map resolve keywords)

let create_local ctx cls args = Create.local ctx.rt cls args
let create_on ctx ~target cls args = Create.on ctx.rt ~target cls args
let create_remote ctx cls args = Create.remote ctx.rt cls args

let charge ctx n =
  charge_work ctx.rt n;
  Sched.maybe_preempt ctx.rt

let random ctx bound = Simcore.Rng.int ctx.rt.rng bound
let bump ctx name = Simcore.Stats.incr (stats ctx.rt) ("app." ^ name)
let retire ctx =
  let rt = ctx.rt in
  let obj = ctx.self_obj in
  Hashtbl.remove rt.objects obj.phys_slot;
  match rt.shared.migration with
  | Some m -> m.mig_retire rt obj
  | None -> ()
let node ctx = ctx.rt.node
let engine ctx = machine ctx.rt
let rt ctx = ctx.rt
