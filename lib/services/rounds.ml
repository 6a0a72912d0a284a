module Engine = Machine.Engine

let max_quiet_rounds = 4

let app_progress m =
  let get = Simcore.Stats.get (Engine.stats m) in
  get "send.remote" + get "send.local.dormant" + get "send.local.active"
  + get "send.local.inlined"
  + get "send.local.naive_buffered"
  + get "send.local.depth_limited"
  + get "send.local.restore" + get "send.local.fault" + get "create.local"
  + get "create.remote"

let arm m ~interval_ns ?(extra_progress = fun () -> 0) action =
  let p = Engine.node_count m in
  let rec tick last_progress quiet () =
    let progress = app_progress m + extra_progress () in
    let quiet = if progress = last_progress then quiet + 1 else 0 in
    if quiet < max_quiet_rounds then begin
      let round = ref (Engine.now m) in
      for i = 0 to p - 1 do
        round := max !round (Machine.Node.now (Engine.node m i))
      done;
      for i = 0 to p - 1 do
        Simcore.Clock.advance_to (Machine.Node.clock (Engine.node m i)) !round;
        action ~node:i
      done;
      Engine.schedule_at m ~time:(!round + interval_ns) (tick progress quiet)
    end
  in
  Engine.schedule_at m ~time:interval_ns (tick 0 0)
