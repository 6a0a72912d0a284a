(* Bench-side spans around the calls into each layer.

   A span records its name, host start and end, its parent span, and the
   GC work done inside it: the [Gc.quick_stat] deltas, plus the time the
   runtime spent in GC phases as reported by [Runtime_events]. Spans are
   kept in memory and read out when the run ends. Untraced runs use
   [off], which is a plain call. *)

type record = {
  name : string;
  parent : string option;
  start_s : float;
  end_s : float;
  minor_collections : int;
  major_collections : int;
  promoted_words : float;
  pause_ns : int;
}

type spans = { span : 'a. string -> (unit -> 'a) -> 'a }

let off = { span = (fun _ f -> f ()) }

(* GC pause time from the runtime's own event ring. A phase nested in
   another phase of the same ring (domain) is not counted twice: only
   the outermost begin/end pair adds to the total. A poller thread drains
   the ring every few milliseconds so it cannot wrap during a long run;
   span boundaries drain it too, so each span sees its own pauses. *)
module Pause = struct
  let max_rings = 128

  type t = {
    cursor : Runtime_events.cursor;
    callbacks : Runtime_events.Callbacks.t;
    lock : Mutex.t;
    mutable total_ns : int;
    mutable lost : int;
    mutable running : bool;
    mutable poller : Thread.t option;
  }

  let drain t =
    Mutex.lock t.lock;
    ignore (Runtime_events.read_poll t.cursor t.callbacks None);
    Mutex.unlock t.lock

  let start () =
    Runtime_events.start ();
    let depth = Array.make max_rings 0 in
    let since = Array.make max_rings 0L in
    let total = ref 0 and lost = ref 0 in
    let ts_ns ts = Runtime_events.Timestamp.to_int64 ts in
    let runtime_begin ring ts _phase =
      if ring < max_rings then begin
        if depth.(ring) = 0 then since.(ring) <- ts_ns ts;
        depth.(ring) <- depth.(ring) + 1
      end
    in
    let runtime_end ring ts _phase =
      if ring < max_rings && depth.(ring) > 0 then begin
        depth.(ring) <- depth.(ring) - 1;
        if depth.(ring) = 0 then
          total := !total + Int64.to_int (Int64.sub (ts_ns ts) since.(ring))
      end
    in
    let lost_events _ring n = lost := !lost + n in
    let callbacks =
      Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~lost_events
        ()
    in
    let t =
      {
        cursor = Runtime_events.create_cursor None;
        callbacks;
        lock = Mutex.create ();
        total_ns = 0;
        lost = 0;
        running = true;
        poller = None;
      }
    in
    let sync () =
      t.total_ns <- !total;
      t.lost <- !lost
    in
    let drain_sync () =
      drain t;
      sync ()
    in
    drain_sync ();
    t.poller <-
      Some
        (Thread.create
           (fun () ->
             while t.running do
               drain t;
               Thread.delay 0.005
             done)
           ());
    (t, drain_sync)

  let stop t =
    t.running <- false;
    Option.iter Thread.join t.poller;
    t.poller <- None;
    Runtime_events.free_cursor t.cursor;
    Runtime_events.pause ()
end

type tracer = {
  pause : Pause.t;
  sync_pause : unit -> unit;
  mutable stack : string list;
  mutable records : record list;
}

let tracer () =
  let pause, sync_pause = Pause.start () in
  { pause; sync_pause; stack = []; records = [] }

let pause_ns tr =
  tr.sync_pause ();
  tr.pause.Pause.total_ns

let spans tr =
  let span : 'a. string -> (unit -> 'a) -> 'a =
   fun name f ->
    let parent = match tr.stack with [] -> None | p :: _ -> Some p in
    tr.stack <- name :: tr.stack;
    let p0 = pause_ns tr in
    let g0 = Gc.quick_stat () in
    let t0 = Unix.gettimeofday () in
    let finish () =
      let t1 = Unix.gettimeofday () in
      let g1 = Gc.quick_stat () in
      let p1 = pause_ns tr in
      tr.stack <- List.tl tr.stack;
      tr.records <-
        {
          name;
          parent;
          start_s = t0;
          end_s = t1;
          minor_collections = g1.minor_collections - g0.minor_collections;
          major_collections = g1.major_collections - g0.major_collections;
          promoted_words = g1.promoted_words -. g0.promoted_words;
          pause_ns = p1 - p0;
        }
        :: tr.records
    in
    Fun.protect ~finally:finish f
  in
  { span }

let records tr = List.rev tr.records
let lost_events tr = tr.pause.Pause.lost
let stop tr = Pause.stop tr.pause
