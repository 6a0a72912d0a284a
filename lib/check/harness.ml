(* Workload pieces the explorer catalog and the bench both drive: the
   sequenced-channel burst with its recovery app and verdict, the FIFO
   stream cell and driver, and the reference churner. *)

open Core
module Engine = Machine.Engine

(* --- sequenced channels ---------------------------------------------- *)

type Machine.Am.payload += Seq of { k : int }

(* Every table is indexed by node and written only by the node that owns
   it (receive state by the receiver, sent counters by the sender). *)
type seq = {
  m : Engine.t;
  nodes : int;
  handler : int;
  next : (int, int) Hashtbl.t array;
      (** per receiving node: source -> next sequence number expected *)
  sent : int array;  (** channel [src * nodes + dst] -> messages sent *)
  reorders : (int * int * int) list array;
      (** per receiving node, newest first: (src, got, expected) *)
  last_rx : int array;
  max_gap : int array;
}

let seq m =
  let nodes = Engine.node_count m in
  let next = Array.init nodes (fun _ -> Hashtbl.create 16) in
  let reorders = Array.make nodes [] in
  let last_rx = Array.make nodes 0 and max_gap = Array.make nodes 0 in
  let handler =
    Engine.register_handler m Machine.Am.Service ~name:"harness-seq"
      (fun _ node am ->
        match am.Machine.Am.payload with
        | Seq { k } ->
            let me = Machine.Node.id node in
            let src = am.Machine.Am.src in
            let now = Machine.Node.now node in
            if last_rx.(me) > 0 then
              max_gap.(me) <- max max_gap.(me) (now - last_rx.(me));
            last_rx.(me) <- now;
            let e = Option.value (Hashtbl.find_opt next.(me) src) ~default:0 in
            if k <> e then reorders.(me) <- (src, k, e) :: reorders.(me);
            Hashtbl.replace next.(me) src (max (k + 1) e)
        | _ -> ())
  in
  {
    m;
    nodes;
    handler;
    next;
    sent = Array.make (nodes * nodes) 0;
    reorders;
    last_rx;
    max_gap;
  }

(* A checkpoint holds exactly one node's delivery table, and a crash
   wipes exactly that table. *)
let recovery_app s =
  {
    Recover.Manager.a_snapshot =
      (fun node ->
        let slice =
          Hashtbl.fold (fun src k acc -> (src, k) :: acc) s.next.(node) []
        in
        Some (Marshal.to_bytes (List.sort compare slice) []));
    a_restore =
      (fun node b ->
        Hashtbl.reset s.next.(node);
        List.iter
          (fun (src, k) -> Hashtbl.replace s.next.(node) src k)
          (Marshal.from_bytes b 0 : (int * int) list));
    a_reset = (fun node -> Hashtbl.reset s.next.(node));
  }

(* Sent counters tick at actual send time, so a burst wiped from a
   crashed sender's run queue never counts as sent. *)
let send_burst s ~src ~dst ~burst ~size_bytes =
  let ch = (src * s.nodes) + dst in
  for _ = 1 to burst do
    let k = s.sent.(ch) in
    s.sent.(ch) <- k + 1;
    Engine.send_am s.m ~src:(Engine.node s.m src) ~dst ~handler:s.handler
      ~size_bytes (Seq { k })
  done

let send_rounds s ~rounds ~start ~burst =
  for r = 0 to rounds - 1 do
    Engine.schedule_at s.m ~time:(start + (r * 40_000)) (fun () ->
        for src = 0 to 2 do
          Engine.post s.m (Engine.node s.m src) (fun () ->
              for d = 1 to 2 do
                send_burst s ~src ~dst:((src + (d * 3)) mod s.nodes) ~burst
                  ~size_bytes:8
              done)
        done)
  done

type verdict = {
  sent : int;
  lost : int;
  dup : int;
  reordered : int;
  findings : string list;
}

let verdict s =
  let lost = ref 0 and dup = ref 0 and reordered = ref 0 in
  let order = ref [] and counts = ref [] in
  for me = 0 to s.nodes - 1 do
    List.iter
      (fun (src, k, e) ->
        incr reordered;
        order :=
          Printf.sprintf
            "channel %d->%d: received %d, expected %d (FIFO or exactly-once \
             broken)"
            src me k e
          :: !order)
      (List.rev s.reorders.(me))
  done;
  for src = 0 to s.nodes - 1 do
    for dst = 0 to s.nodes - 1 do
      let k = s.sent.((src * s.nodes) + dst) in
      let got = Option.value (Hashtbl.find_opt s.next.(dst) src) ~default:0 in
      if got < k then lost := !lost + (k - got);
      if got > k then incr dup;
      if got <> k then
        counts :=
          Printf.sprintf "channel %d->%d: delivered %d of %d sent" src dst got k
          :: !counts
    done
  done;
  {
    sent = Array.fold_left ( + ) 0 s.sent;
    lost = !lost;
    dup = !dup;
    reordered = !reordered;
    findings = List.rev_append !order (List.rev !counts);
  }

let max_gap s node = s.max_gap.(node)

(* --- FIFO stream ------------------------------------------------------ *)

type stream = {
  cell : Kernel.cls;
  driver : Kernel.cls;
  start : Pattern.t;
  result : (int * int) option ref;
}

(* Pattern names are prefixed per caller: with migration attached a
   message's wire size is its codec length, which counts the keyword, so
   each caller keeps the names its timings were measured with. *)
let stream ~prefix =
  let p_add = Pattern.intern (prefix ^ "add") ~arity:1 in
  let p_report = Pattern.intern (prefix ^ "report") ~arity:0 in
  let p_next = Pattern.intern (prefix ^ "next") ~arity:0 in
  let result = ref None in
  let cell =
    Class_def.define ~name:(prefix ^ "cell") ~state:[| "hash"; "sum" |]
      ~init:(fun _ -> [| Value.int 0; Value.int 0 |])
      ~methods:
        [
          ( p_add,
            fun ctx msg ->
              let k = Value.to_int (Message.arg msg 0) in
              Ctx.set ctx 0
                (Value.int ((31 * Value.to_int (Ctx.get ctx 0)) + k));
              Ctx.set ctx 1 (Value.int (Value.to_int (Ctx.get ctx 1) + k)) );
          ( p_report,
            fun ctx _ ->
              let get i = Value.to_int (Ctx.get ctx i) in
              result := Some (get 0, get 1) );
        ]
      ()
  in
  let driver =
    Class_def.define ~name:(prefix ^ "driver")
      ~state:[| "target"; "i"; "count" |]
      ~init:(fun args ->
        match args with
        | [ target; count ] -> [| target; Value.int 1; count |]
        | _ -> invalid_arg (prefix ^ "driver"))
      ~methods:
        [
          ( p_next,
            fun ctx _ ->
              let target =
                match Ctx.get ctx 0 with Value.Addr a -> a | _ -> assert false
              in
              let i = Value.to_int (Ctx.get ctx 1) in
              let count = Value.to_int (Ctx.get ctx 2) in
              if i <= count then begin
                Ctx.send ctx target p_add [ Value.int i ];
                Ctx.set ctx 1 (Value.int (i + 1));
                Ctx.send ctx (Ctx.self ctx) p_next []
              end
              else Ctx.send ctx target p_report [] );
        ]
      ()
  in
  { cell; driver; start = p_next; result }

let place_stream st sys ~count =
  let cell = System.create_root sys ~node:0 st.cell [] in
  let driver =
    System.create_root sys ~node:1 st.driver
      [ Value.Addr cell; Value.int count ]
  in
  (cell, driver)

let stream_expected ~count =
  List.fold_left
    (fun (h, s) k -> ((31 * h) + k, s + k))
    (0, 0)
    (List.init count (fun i -> i + 1))

(* --- reference churn -------------------------------------------------- *)

type churn = { gcell : Kernel.cls; churner : Kernel.cls; p_churn : Pattern.t }

let churn ~prefix =
  let p_poke = Pattern.intern (prefix ^ "poke") ~arity:1 in
  let p_churn = Pattern.intern (prefix ^ "churn") ~arity:2 in
  let gcell =
    Class_def.define ~name:(prefix ^ "gcell") ~state:[| "v" |]
      ~init:(fun _ -> [| Value.int 0 |])
      ~methods:[ (p_poke, fun ctx msg -> Ctx.set ctx 0 (Message.arg msg 0)) ]
      ()
  in
  let churner =
    Class_def.define ~name:(prefix ^ "churner") ~state:[| "ref" |]
      ~init:(fun _ -> [| Value.unit |])
      ~methods:
        [
          ( p_churn,
            fun ctx msg ->
              let i = Value.to_int (Message.arg msg 0) in
              let n = Value.to_int (Message.arg msg 1) in
              if i < n then begin
                let p = Ctx.node_count ctx in
                let target = (Ctx.node_id ctx + 1 + (i mod (p - 1))) mod p in
                let a = Ctx.create_on ctx ~target gcell [] in
                Ctx.send ctx a p_poke [ Value.int i ];
                (* keep only the newest reference: garbage every cycle *)
                Ctx.set ctx 0 (Value.Addr a);
                Ctx.send ctx (Ctx.self ctx) p_churn
                  [ Value.int (i + 1); Value.int n ]
              end );
        ]
      ()
  in
  { gcell; churner; p_churn }

let start_churn c sys ~cycles =
  for node = 0 to System.node_count sys - 1 do
    let r = System.create_root sys ~node c.churner [] in
    System.send_boot sys r c.p_churn [ Value.int 0; Value.int cycles ]
  done
