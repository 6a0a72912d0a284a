(* 4-ary min-heap over (time, seq) keys, stored as three parallel arrays
   so that adding and taking an event allocate nothing. [seq] is a
   monotonically increasing insertion counter, so ties in [time] break
   FIFO. Sifting moves a hole instead of swapping entries.

   A vacated value slot is overwritten with [dummy] at once: the queue
   holds closures and whole messages, and a taken value left behind in
   the array until it happened to be overwritten kept arbitrarily large
   object graphs alive.

   [dummy] is an immediate standing in for an ['a] that is never read.
   [values] is only ever accessed by the polymorphic code of this module
   (which checks the array tag on every access), and the arrays handed
   to a tie-break chooser are built from real values, so a [float]
   payload never meets a float-array access of this array. *)

type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable values : 'a array;  (* [0, len) is a valid heap *)
  mutable len : int;
  mutable next_seq : int;
  mutable tie_break : ('a array -> int) option;
}

let dummy () : 'a = Obj.magic 0

let create () =
  {
    times = [||];
    seqs = [||];
    values = [||];
    len = 0;
    next_seq = 0;
    tie_break = None;
  }

let set_tie_break q choose = q.tie_break <- choose

let grow q =
  let cap = Array.length q.times in
  let cap' = if cap = 0 then 16 else cap * 2 in
  let times = Array.make cap' 0
  and seqs = Array.make cap' 0
  and values = Array.make cap' (dummy ()) in
  Array.blit q.times 0 times 0 q.len;
  Array.blit q.seqs 0 seqs 0 q.len;
  Array.blit q.values 0 values 0 q.len;
  q.times <- times;
  q.seqs <- seqs;
  q.values <- values

let[@inline] less (t1 : int) (s1 : int) t2 s2 = t1 < t2 || (t1 = t2 && s1 < s2)

let[@inline] place q i time seq value =
  q.times.(i) <- time;
  q.seqs.(i) <- seq;
  q.values.(i) <- value

let[@inline] move q ~src ~dst =
  place q dst q.times.(src) q.seqs.(src) q.values.(src)

(* Moves the hole at [i] up until (time, seq) fits, and fills it. *)
let sift_up q i time seq value =
  let i = ref i in
  let moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) lsr 2 in
    if less time seq q.times.(parent) q.seqs.(parent) then begin
      move q ~src:parent ~dst:!i;
      i := parent
    end
    else moving := false
  done;
  place q !i time seq value

(* Moves the hole at [i] down until (time, seq) fits, and fills it.
   Returns the final index. *)
let sift_down q i time seq value =
  let len = q.len in
  let i = ref i in
  let moving = ref true in
  while !moving do
    let first = (4 * !i) + 1 in
    if first >= len then moving := false
    else begin
      let best = ref first in
      let last = if first + 3 < len then first + 3 else len - 1 in
      for c = first + 1 to last do
        if less q.times.(c) q.seqs.(c) q.times.(!best) q.seqs.(!best) then
          best := c
      done;
      let b = !best in
      if less q.times.(b) q.seqs.(b) time seq then begin
        move q ~src:b ~dst:!i;
        i := b
      end
      else moving := false
    end
  done;
  place q !i time seq value;
  !i

let add q ~time value =
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  if q.len = Array.length q.times then grow q;
  let i = q.len in
  q.len <- i + 1;
  sift_up q i time seq value

(* Removes the entry at heap index [i] and returns its value; the last
   entry refills the hole and the vacated slot is cleared. *)
let remove_at q i =
  let v = q.values.(i) in
  let last = q.len - 1 in
  q.len <- last;
  if i < last then begin
    let time = q.times.(last) and seq = q.seqs.(last) in
    let value = q.values.(last) in
    q.values.(last) <- dummy ();
    if sift_down q i time seq value = i then sift_up q i time seq value
  end
  else q.values.(i) <- dummy ();
  v

(* All entries sharing the minimal timestamp form a connected subtree
   rooted at index 0 (an equal-time entry's ancestors can only carry the
   same minimal time), so a DFS that stops at later times finds them
   without scanning the whole heap. *)
let min_time_indices q tmin =
  let acc = ref [] in
  let rec visit i =
    if i < q.len && q.times.(i) = tmin then begin
      acc := i :: !acc;
      for c = (4 * i) + 1 to (4 * i) + 4 do
        visit c
      done
    end
  in
  visit 0;
  !acc

let chosen_index q choose =
  match min_time_indices q q.times.(0) with
  | [] | [ _ ] -> 0
  | candidates ->
      (* Deterministic candidate order: by insertion sequence, so choice 0
         is the FIFO default and a replayed choice k lands on the same
         event regardless of heap layout. *)
      let by_seq =
        Array.of_list
          (List.sort
             (fun a b -> Int.compare q.seqs.(a) q.seqs.(b))
             candidates)
      in
      let k = choose (Array.map (fun i -> q.values.(i)) by_seq) in
      by_seq.(if k < 0 || k >= Array.length by_seq then 0 else k)

let min_time q = if q.len = 0 then max_int else q.times.(0)

let take q =
  if q.len = 0 then invalid_arg "Event_queue.take: empty queue";
  match q.tie_break with
  | None -> remove_at q 0
  | Some choose -> remove_at q (chosen_index q choose)

let pop q =
  if q.len = 0 then None
  else
    let time = q.times.(0) in
    Some (time, take q)

let iter f q =
  for i = 0 to q.len - 1 do
    f q.times.(i) q.values.(i)
  done

let size q = q.len
let is_empty q = q.len = 0

let clear q =
  (* Drop the whole arrays: resetting [len] alone kept every queued value
     reachable until the slots were overwritten. *)
  q.times <- [||];
  q.seqs <- [||];
  q.values <- [||];
  q.len <- 0
