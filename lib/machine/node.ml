type local = ..
type local += No_local

type t = {
  id : int;
  clock : Simcore.Clock.t;
  (* arrival-ordered: a message becomes visible once the clock passes its
     arrival timestamp *)
  inbox : Am.t Simcore.Event_queue.t;
  runq : (unit -> unit) Queue.t;
  mutable idle : bool;
  mutable local : local;
  mutable heap_words : int;
  mutable interrupts_masked : bool;
  mutable next_wake : Simcore.Time.t;  (** earliest scheduled Wake; max_int if none *)
}

let create ~id =
  {
    id;
    clock = Simcore.Clock.create ();
    inbox = Simcore.Event_queue.create ();
    runq = Queue.create ();
    idle = true;
    local = No_local;
    heap_words = 0;
    interrupts_masked = false;
    next_wake = max_int;
  }

let id t = t.id
let clock t = t.clock
let now t = Simcore.Clock.now t.clock
let charge_ns t ns = Simcore.Clock.advance_by t.clock ns
let local t = t.local
let set_local t l = t.local <- l
let inbox_push t ~arrival am = Simcore.Event_queue.add t.inbox ~time:arrival am
(* Same-time inbox entries from one source are not concurrent: the
   reliable layer releases a sequenced run in a single event, and its
   order is part of the per-channel FIFO contract. Only the earliest
   entry per source is a legal pick, so the chooser ranges over the
   distinct sources present. *)
let set_inbox_tie_break t choose =
  Simcore.Event_queue.set_tie_break t.inbox
    (Option.map
       (fun f ams ->
         let seen = Hashtbl.create 8 in
         let legal = ref [] in
         Array.iteri
           (fun i (am : Am.t) ->
             if not (Hashtbl.mem seen am.Am.src) then begin
               Hashtbl.add seen am.Am.src ();
               legal := i :: !legal
             end)
           ams;
         match List.rev !legal with
         | [] | [ _ ] -> 0
         | legal ->
             let legal = Array.of_list legal in
             let n = Array.length legal in
             let k = f n in
             legal.(if k < 0 || k >= n then 0 else k))
       choose)

let inbox_min t = Simcore.Event_queue.min_time t.inbox
let inbox_take t = Simcore.Event_queue.take t.inbox
let inbox_size t = Simcore.Event_queue.size t.inbox
let inbox_iter f t = Simcore.Event_queue.iter (fun _ am -> f am) t.inbox
let runq_push t thunk = Queue.push thunk t.runq
let runq_pop t = Queue.take_opt t.runq
let runq_size t = Queue.length t.runq
let is_idle t = t.idle
let set_idle t b = t.idle <- b
let heap_alloc_words t w = t.heap_words <- t.heap_words + w
let heap_free_words t w = t.heap_words <- max 0 (t.heap_words - w)
let heap_words t = t.heap_words
let interrupts_masked t = t.interrupts_masked
let set_interrupts_masked t b = t.interrupts_masked <- b
let next_wake t = t.next_wake
let set_next_wake t v = t.next_wake <- v

(* kill -9: volatile state is gone. The clock survives — it is the
   engine's virtual-time cursor for the node, not node memory — and the
   [local] slot is wiped by the runtime's own crash hook, which knows
   what lives there. *)
let crash_reset t =
  Simcore.Event_queue.clear t.inbox;
  Queue.clear t.runq;
  t.idle <- true;
  t.heap_words <- 0;
  t.interrupts_masked <- false;
  t.next_wake <- max_int
