(* Tests for per-destination message aggregation: batch codec round
   trips, the bypass fast path's Table-1 invariance, burst batching with
   per-channel FIFO order, exactly-once delivery when a whole batch
   shares a fault fate, flush-time piggyback riders, and weight
   conservation when the distributed GC rides departing batches. *)

open Core
module Engine = Machine.Engine
module Coalesce = Machine.Coalesce
module Node = Machine.Node
module Faults = Network.Faults

type Machine.Am.payload += Seq of { k : int } | Rider of int

let coal_config faults =
  {
    Engine.default_config with
    Engine.coalesce = Some Coalesce.default_config;
    faults;
  }

(* --- batch codec ---------------------------------------------------- *)

let value_gen =
  let open QCheck.Gen in
  oneof
    [
      return Value.unit;
      map Value.bool bool;
      map Value.int small_signed_int;
      map Value.float (float_bound_inclusive 1e6);
      map Value.str (string_size ~gen:printable (int_range 0 12));
      map2
        (fun node slot -> Value.addr { Value.node; slot })
        (int_range 0 511) (int_range 0 100_000);
      map Value.list (list_size (int_range 0 3) (map Value.int small_signed_int));
    ]

let msg_gen =
  let open QCheck.Gen in
  let* kw_i = int_range 0 2 in
  let* args = list_size (int_range 0 4) value_gen in
  (* a pattern keyword is interned with one fixed arity *)
  let kw = Printf.sprintf "coal_p%d_%d" kw_i (List.length args) in
  let* src_node = int_range 0 15 in
  let* reply =
    oneof
      [
        return None;
        map2
          (fun node slot -> Some { Value.node; slot })
          (int_range 0 15) (int_range 0 999);
      ]
  in
  let* gc_refs =
    list_size (int_range 0 3)
      (let* node = int_range 0 15 in
       let* slot = int_range 0 999 in
       let* w = int_range 0 64 in
       let* backer = int_range (-1) 15 in
       return
         { Message.gr_addr = { Value.node; slot }; gr_weight = w; gr_backer = backer })
  in
  let pattern = Pattern.intern kw ~arity:(List.length args) in
  let m = Message.make ~pattern ~args ?reply ~src_node () in
  m.Message.gc_refs <- gc_refs;
  return m

let msg_equal (a : Message.t) (b : Message.t) =
  a.Message.pattern = b.Message.pattern
  && List.length a.args = List.length b.args
  && List.for_all2 Value.equal a.args b.args
  && a.reply = b.reply && a.src_node = b.src_node && a.gc_refs = b.gc_refs

let prop_batch_roundtrip =
  QCheck.Test.make ~count:200 ~name:"batch encode/decode round trip"
    (QCheck.make QCheck.Gen.(list_size (int_range 0 8) msg_gen))
    (fun ms ->
      let ms' = Codec.decode_batch (Codec.encode_batch ms) in
      List.length ms = List.length ms' && List.for_all2 msg_equal ms ms')

let prop_sized_single_pass =
  QCheck.Test.make ~count:200 ~name:"encoded_message_size is exact"
    (QCheck.make msg_gen)
    (fun m ->
      let b = Codec.encode_message m in
      (* the scratch-buffer path appends the identical encoding *)
      let buf = Buffer.create 16 in
      Buffer.add_string buf "xyz";
      Codec.encode_message_into buf m;
      Bytes.length b = Codec.encoded_message_size m
      && Buffer.contents buf = "xyz" ^ Bytes.to_string b
      && msg_equal m (Codec.decode_message b))

let test_batch_trailing_garbage () =
  let padded =
    Bytes.cat (Codec.encode_batch []) (Bytes.of_string "x")
  in
  Alcotest.(check bool) "trailing garbage rejected" true
    (match Codec.decode_batch padded with
    | exception Failure _ -> true
    | _ -> false)

(* --- bypass fast path ----------------------------------------------- *)

(* With aggregation on but traffic spaced (every app workload), the
   bypass path must keep Table 1 bit-identical to the unbatched build. *)
let test_table1_invariant () =
  let base = Apps.Microbench.measure () in
  let coal = Apps.Microbench.measure ~machine_config:(coal_config None) () in
  Alcotest.(check (float 0.))
    "inter-node latency identical" base.Apps.Microbench.inter_latency_ns
    coal.Apps.Microbench.inter_latency_ns;
  Alcotest.(check (float 0.))
    "dormant send identical" base.Apps.Microbench.intra_dormant_ns
    coal.Apps.Microbench.intra_dormant_ns

(* --- burst batching on a perfect network ---------------------------- *)

(* A gap-0 burst of 64 messages to one destination: 1 bypass single,
   then batches cut by the frame threshold and the credit window, with
   the tail leaving on the scheduler-idle flush. Delivery must be
   complete, in order, and in far fewer packets. *)
let test_burst_batches_fifo () =
  let m = Engine.create ~config:(coal_config None) ~nodes:8 () in
  let burst = 64 in
  let got = ref [] in
  let h =
    Engine.register_handler m Machine.Am.Service ~name:"seq" (fun _ _ am ->
        match am.Machine.Am.payload with
        | Seq { k } -> got := k :: !got
        | _ -> ())
  in
  let src = Engine.node m 0 in
  Engine.post m src (fun () ->
      for k = 0 to burst - 1 do
        Engine.send_am m ~src ~dst:5 ~handler:h ~size_bytes:8 (Seq { k })
      done);
  Engine.run m;
  Alcotest.(check (list int))
    "all delivered in FIFO order"
    (List.init burst (fun k -> k))
    (List.rev !got);
  Alcotest.(check bool)
    (Printf.sprintf "far fewer packets (%d)" (Engine.packets_sent m))
    true
    (Engine.packets_sent m * 2 <= burst);
  Alcotest.(check int) "nothing left buffered" 0 (Engine.coalesce_buffered m);
  let s = Option.get (Engine.coalesce_stats m) in
  Alcotest.(check bool) "batches were cut by size" true
    (s.Coalesce.s_flush_size >= 1);
  Alcotest.(check bool) "credit window engaged" true
    (s.Coalesce.s_flush_credit + s.Coalesce.s_flush_idle >= 1);
  Alcotest.(check int) "frame accounting" (burst - s.Coalesce.s_singles)
    s.Coalesce.s_frames

(* --- exactly-once FIFO when whole batches share a fault fate -------- *)

let test_exactly_once_under_faults () =
  let plan = Faults.plan ~seed:23 ~drop:0.12 ~duplicate:0.08 ~jitter_ns:1_000 () in
  let m = Engine.create ~config:(coal_config (Some plan)) ~nodes:8 () in
  let senders = 3 and dests = 2 and rounds = 4 and burst = 20 in
  let next = Hashtbl.create 16 in
  let h =
    Engine.register_handler m Machine.Am.Service ~name:"seq" (fun _ node am ->
        match am.Machine.Am.payload with
        | Seq { k } ->
            let ch = (am.Machine.Am.src, Node.id node) in
            let expect =
              Option.value (Hashtbl.find_opt next ch) ~default:0
            in
            if k <> expect then
              Alcotest.failf "channel %d->%d: got %d, expected %d"
                (fst ch) (snd ch) k expect;
            Hashtbl.replace next ch (expect + 1)
        | _ -> ())
  in
  let sent = Hashtbl.create 16 in
  for r = 0 to rounds - 1 do
    Engine.schedule_at m ~time:(r * 40_000) (fun () ->
        for s = 0 to senders - 1 do
          let src = Engine.node m s in
          Engine.post m src (fun () ->
              for d = 1 to dests do
                let dst = (s + (d * 3)) mod 8 in
                for _ = 1 to burst do
                  let ch = (s, dst) in
                  let k = Option.value (Hashtbl.find_opt sent ch) ~default:0 in
                  Hashtbl.replace sent ch (k + 1);
                  Engine.send_am m ~src ~dst ~handler:h ~size_bytes:8
                    (Seq { k })
                done
              done)
        done)
  done;
  Engine.run m;
  Hashtbl.iter
    (fun ch k ->
      Alcotest.(check int)
        (Printf.sprintf "channel %d->%d complete" (fst ch) (snd ch))
        k
        (Option.value (Hashtbl.find_opt next ch) ~default:0))
    sent;
  Alcotest.(check bool) "the plan actually fired" true
    (Engine.packets_dropped m > 0);
  Alcotest.(check int) "nothing in flight" 0 (Engine.reliable_in_flight m);
  Alcotest.(check int) "nothing buffered" 0 (Engine.coalesce_buffered m)

(* --- flush-time piggyback riders ------------------------------------ *)

(* A registered piggyback source hands control messages to departing
   batches. Riders must be delivered exactly once — on the framed path
   they enter the sequenced window like any other send. *)
let run_riders faults =
  let m = Engine.create ~config:(coal_config faults) ~nodes:4 () in
  let data = ref 0 and riders_got = ref [] in
  let h_data =
    Engine.register_handler m Machine.Am.Service ~name:"data" (fun _ _ _ ->
        incr data)
  in
  let h_rider =
    Engine.register_handler m Machine.Am.Service ~name:"rider" (fun _ _ am ->
        match am.Machine.Am.payload with
        | Rider id -> riders_got := id :: !riders_got
        | _ -> ())
  in
  let handed = ref 0 in
  Engine.set_piggyback_source m
    (Some
       (fun ~src ~dst ->
         ignore dst;
         if !handed < 5 then begin
           incr handed;
           [
             {
               Machine.Am.handler = h_rider;
               src;
               size_bytes = 8;
               payload = Rider !handed;
             };
           ]
         end
         else []));
  let src = Engine.node m 0 in
  let burst = 24 in
  for r = 0 to 2 do
    Engine.schedule_at m ~time:(r * 30_000) (fun () ->
        Engine.post m src (fun () ->
            for _ = 1 to burst do
              Engine.send_am m ~src ~dst:2 ~handler:h_data ~size_bytes:8
                (Seq { k = 0 })
            done))
  done;
  Engine.run m;
  Alcotest.(check int) "all data delivered" (3 * burst) !data;
  Alcotest.(check bool) "riders were handed out" true (!handed > 0);
  Alcotest.(check (list int))
    "each rider delivered exactly once"
    (List.init !handed (fun i -> i + 1))
    (List.sort_uniq compare !riders_got);
  Alcotest.(check int) "no rider duplicated" !handed (List.length !riders_got);
  Alcotest.(check int) "rider stat matches" !handed
    (Option.get (Engine.coalesce_stats m)).Machine.Coalesce.s_riders

let test_riders_direct () = run_riders None

let test_riders_framed () =
  run_riders (Some (Faults.plan ~seed:3 ~drop:0.1 ~jitter_ns:500 ()))

(* --- distributed GC riding batches ---------------------------------- *)

let p_poke = Pattern.intern "coal_poke" ~arity:1
let p_churn = Pattern.intern "coal_churn" ~arity:2

let cell_cls () =
  Class_def.define ~name:"coal_cell" ~state:[| "v" |]
    ~init:(fun _ -> [| Value.int 0 |])
    ~methods:[ (p_poke, fun ctx msg -> Ctx.set ctx 0 (Message.arg msg 0)) ]
    ()

let churner_cls ~cell () =
  Class_def.define ~name:"coal_churner" ~state:[| "ref" |]
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
              let a = Ctx.create_on ctx ~target cell [] in
              Ctx.send ctx a p_poke [ Value.int i ];
              (* keep only the newest: one unit of garbage per cycle *)
              Ctx.set ctx 0 (Value.Addr a);
              Ctx.send ctx (Ctx.self ctx) p_churn
                [ Value.int (i + 1); Value.int n ]
            end );
      ]
    ()

(* Churn with the collector's periodic sweep live on an aggregating
   machine (with and without faults): decrement traffic may ride
   departing batches through the piggyback hook, and the weight audit
   must still balance exactly. *)
let run_dgc_churn faults =
  let machine_config = coal_config faults in
  let cell = cell_cls () in
  let churner = churner_cls ~cell () in
  let sys =
    System.boot ~machine_config ~nodes:4 ~classes:[ cell; churner ] ()
  in
  let g = Dgc.attach ~interval_ns:150_000 sys in
  for node = 0 to 3 do
    let c = System.create_root sys ~node churner [] in
    System.send_boot sys c p_churn [ Value.int 0; Value.int 30 ]
  done;
  System.run sys;
  Dgc.settle g;
  Alcotest.(check (list string)) "weights balance" [] (Dgc.audit g);
  let report = Diagnostics.survey sys in
  if not (Diagnostics.is_clean report) then
    Format.printf "%a@." Diagnostics.pp report;
  Alcotest.(check bool) "clean quiescence" true (Diagnostics.is_clean report);
  Alcotest.(check bool) "collector reclaimed garbage" true
    (Dgc.reclaimed g > 0);
  (* One counter per fact: the fabric and the aggregation layer own the
     drop, duplicate and batch counts, and the collector keeps no
     per-node copies of its totals in Stats. *)
  let shadow name =
    String.starts_with ~prefix:"fault." name
    || String.starts_with ~prefix:"coalesce." name
    || (String.starts_with ~prefix:"dgc." name
       && List.exists
            (String.starts_with ~prefix:"node")
            (String.split_on_char '.' name))
  in
  Alcotest.(check (list string)) "no shadow counters" []
    (List.filter shadow (Simcore.Stats.names (System.stats sys)))

let test_dgc_rides_batches () = run_dgc_churn None

let test_dgc_rides_batches_faults () =
  run_dgc_churn (Some (Faults.plan ~seed:9 ~drop:0.05 ~duplicate:0.05 ()))

let () =
  Alcotest.run "coalesce"
    [
      ( "codec",
        [
          QCheck_alcotest.to_alcotest prop_batch_roundtrip;
          QCheck_alcotest.to_alcotest prop_sized_single_pass;
          Alcotest.test_case "batch trailing garbage" `Quick
            test_batch_trailing_garbage;
        ] );
      ( "bypass",
        [ Alcotest.test_case "Table 1 invariant" `Quick test_table1_invariant ] );
      ( "batching",
        [
          Alcotest.test_case "burst batches, FIFO" `Quick
            test_burst_batches_fifo;
          Alcotest.test_case "exactly-once under faults" `Quick
            test_exactly_once_under_faults;
        ] );
      ( "riders",
        [
          Alcotest.test_case "direct path" `Quick test_riders_direct;
          Alcotest.test_case "framed path" `Quick test_riders_framed;
        ] );
      ( "dgc",
        [
          Alcotest.test_case "audit balances" `Quick test_dgc_rides_batches;
          Alcotest.test_case "audit balances under faults" `Quick
            test_dgc_rides_batches_faults;
        ] );
    ]
