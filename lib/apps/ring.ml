open Core

type result = {
  nodes : int;
  hops : int;
  elapsed : Simcore.Time.t;
  ns_per_hop : float;
}

let p_token = Pattern.intern "token" ~arity:1
let p_link = Pattern.intern "link" ~arity:1

let station_cls () =
  Class_def.define ~name:"ring_station" ~state:[| "next" |]
    ~init:(fun _ -> [| Value.unit |])
    ~methods:
      [
        ( p_link,
          fun ctx msg -> Ctx.set ctx 0 (Message.arg msg 0) );
        ( p_token,
          fun ctx msg ->
            let hops = Value.to_int (Message.arg msg 0) in
            if hops > 0 then
              let next = Value.to_addr (Ctx.get ctx 0) in
              Ctx.send ctx next p_token [ Value.int (hops - 1) ]
            else Ctx.bump ctx "ring.finished" );
      ]
    ()

let run ?machine_config ?rt_config ~nodes ~laps () =
  if nodes < 2 then invalid_arg "Ring.run: need at least two nodes";
  let cls = station_cls () in
  let sys = System.boot ?machine_config ?rt_config ~nodes ~classes:[ cls ] () in
  let stations =
    Array.init nodes (fun i -> System.create_root sys ~node:i cls [])
  in
  Array.iteri
    (fun i station ->
      let next = stations.((i + 1) mod nodes) in
      System.send_boot sys station p_link [ Value.addr next ])
    stations;
  let hops = laps * nodes in
  System.send_boot sys stations.(0) p_token [ Value.int hops ];
  System.run sys;
  let elapsed = System.elapsed sys in
  {
    nodes;
    hops;
    elapsed;
    ns_per_hop = float_of_int elapsed /. float_of_int hops;
  }
