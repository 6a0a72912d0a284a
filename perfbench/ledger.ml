(* The layer ledger: host ns/op and minor words/op of one public hot call
   per layer, measured with bechamel (OLS over the run count). Each row
   keeps its structure at a steady size, so an op measures the
   steady-state call and not the growth of a fresh structure. *)

open Bechamel
module Time = Simcore.Time

type row = { name : string; ns_per_op : float; words_per_op : float }

let event_queue_add_pop () =
  let q = Simcore.Event_queue.create () in
  for i = 0 to 1023 do
    Simcore.Event_queue.add q ~time:(i * 7919 mod 100_003) i
  done;
  let t = ref 100_003 in
  fun () ->
    t := !t + 97;
    Simcore.Event_queue.add q ~time:!t 0;
    ignore (Simcore.Event_queue.pop q)

let codec_roundtrip () =
  let open Core in
  let msg =
    Message.make
      ~pattern:(Pattern.intern "ledger_op" ~arity:4)
      ~args:
        [
          Value.int 2;
          Value.int 1_234;
          Value.int 987_654;
          Value.addr { Value.node = 3; slot = 17 };
        ]
      ~src_node:1 ()
  in
  let b = Buffer.create 256 in
  fun () ->
    Buffer.clear b;
    Codec.encode_message_into b msg;
    ignore (Codec.decode_message_at (Buffer.to_bytes b) ~pos:0)

let fabric_send () =
  let fab = Network.Fabric.create (Network.Topology.square_for 64) in
  let packets =
    Array.init 64 (fun i ->
        Network.Packet.make ~src:i ~dst:(i * 37 mod 64) ~size_bytes:48 ())
  in
  let i = ref 0 and now = ref 0 in
  fun () ->
    incr i;
    now := !now + 50;
    ignore (Network.Fabric.send fab ~now:!now packets.(!i land 63))

let reliable_push_ack () =
  let r = Machine.Reliable.create ~nodes:2 () in
  let am =
    {
      Machine.Am.handler = 0;
      src = 0;
      size_bytes = 48;
      payload = Machine.Am.Ping;
    }
  in
  let now = ref 0 in
  fun () ->
    now := !now + 1_000;
    match Machine.Reliable.push r ~src:0 ~dst:1 ~now:!now am with
    | `Send fr ->
        ignore
          (Machine.Reliable.on_ack r ~src:0 ~dst:1
             ~ack:fr.Machine.Reliable.fr_seq ~now:(!now + 500))
    | `Queued -> invalid_arg "ledger: reliable window full"

let coalesce_offer_take () =
  let c = Machine.Coalesce.create ~nodes:2 () in
  let now = ref 0 in
  fun () ->
    now := !now + 100;
    ignore
      (Machine.Coalesce.offer c ~src:0 ~dst:1 ~now:!now ~bytes:56
         ~port_free:false 0);
    ignore (Machine.Coalesce.take c ~src:0 ~dst:1);
    ignore (Machine.Coalesce.credit_return c ~src:0 ~dst:1)

let histogram_observe () =
  let h = Simcore.Histogram.create ~bucket_width:500 () in
  let i = ref 0 in
  fun () ->
    i := !i + 7_919;
    Simcore.Histogram.observe h (!i land 0x3ffff)

let stats_bump () =
  let cell = Simcore.Stats.counter (Simcore.Stats.create ()) "ledger.op" in
  fun () -> Simcore.Stats.bump cell

let spsc_push_pop () =
  let q = Simcore.Spsc.create () in
  fun () ->
    Simcore.Spsc.push q 1;
    ignore (Simcore.Spsc.pop q)

let store_put_get () =
  let s = Recover.Store.create () in
  let v = Bytes.make 64 'x' in
  let keys = Array.init 16 (Printf.sprintf "obj%d") in
  let i = ref 0 in
  fun () ->
    incr i;
    let key = keys.(!i land 15) in
    Recover.Store.put s ~key v;
    ignore (Recover.Store.get s ~key)

let rows =
  [
    ("ledger.event_queue.add_pop", event_queue_add_pop);
    ("ledger.codec.roundtrip", codec_roundtrip);
    ("ledger.fabric.send", fabric_send);
    ("ledger.reliable.push_ack", reliable_push_ack);
    ("ledger.coalesce.offer_take", coalesce_offer_take);
    ("ledger.histogram.observe", histogram_observe);
    ("ledger.stats.bump", stats_bump);
    ("ledger.spsc.push_pop", spsc_push_pop);
    ("ledger.store.put_get", store_put_get);
  ]

(* [quota] is the host time bechamel spends sampling each row. *)
let measure ~quota =
  let instances = Toolkit.Instance.[ monotonic_clock; minor_allocated ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~stabilize:false
      ~quota:(Bechamel.Time.second quota) ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let estimate instance result =
    match Analyze.OLS.estimates (Analyze.one ols instance result) with
    | Some [ e ] -> e
    | Some _ | None -> nan
  in
  List.map
    (fun (name, make) ->
      let test = Test.make ~name (Staged.stage (make ())) in
      let elt = List.hd (Test.elements test) in
      let result = Benchmark.run cfg instances elt in
      {
        name;
        ns_per_op = estimate Toolkit.Instance.monotonic_clock result;
        words_per_op = estimate Toolkit.Instance.minor_allocated result;
      })
    rows
