(* Simulated per-node stable store: a block-allocated heap with a free
   list, a cold tier, and append-only journal regions.

   The hot tier is a fixed number of fixed-size blocks handed out from a
   free list. Named records (checkpoints) occupy whole blocks; when an
   allocation cannot be satisfied, the least-recently-used record is
   evicted to the cold tier — its blocks return to the free list, its
   bytes survive — and faulted back (re-allocated) on the next access.
   Journal regions also consume blocks as they grow but are never
   evicted: a journal that cannot be read back synchronously is not a
   journal.

   Recency is a logical tick (bumped per access), not wall-clock time:
   the store must behave identically under deterministic replay. All
   sizes are accounted in bytes and blocks so recovery reports can cite
   checkpoint volume and journal growth; the payloads themselves live in
   the OCaml heap. *)

type record = {
  mutable r_data : bytes;
  mutable r_blocks : int list;  (** hot blocks backing it; [[]] when cold *)
  mutable r_cold : bool;
  mutable r_tick : int;  (** last access, logical *)
}

type log = {
  mutable l_entries : int;
  mutable l_bytes : int;
  mutable l_blocks : int list;
}

type t = {
  block_bytes : int;
  capacity : int;  (** hot blocks total *)
  mutable free : int list;
  mutable free_count : int;
  records : (string, record) Hashtbl.t;
  logs : (string, log) Hashtbl.t;
  mutable tick : int;
  (* counters *)
  mutable puts : int;
  mutable put_bytes : int;
  mutable gets : int;
  mutable evictions : int;
  mutable evicted_bytes : int;
  mutable faults : int;
  mutable faulted_bytes : int;
  mutable appends : int;
  mutable append_bytes : int;
  mutable truncates : int;
  mutable blocks_high : int;  (** high-water mark of blocks in use *)
}

type stats = {
  s_puts : int;
  s_put_bytes : int;
  s_gets : int;
  s_evictions : int;
  s_evicted_bytes : int;
  s_faults : int;
  s_faulted_bytes : int;
  s_appends : int;
  s_append_bytes : int;
  s_truncates : int;
  s_blocks_used : int;
  s_blocks_free : int;
  s_blocks_high : int;
  s_cold_records : int;
  s_cold_bytes : int;
}

let create ?(block_bytes = 256) ?(blocks = 4096) () =
  if block_bytes < 16 then invalid_arg "Store.create: block_bytes must be >= 16";
  if blocks < 4 then invalid_arg "Store.create: need at least 4 blocks";
  let free = List.init blocks (fun i -> i) in
  {
    block_bytes;
    capacity = blocks;
    free;
    free_count = blocks;
    records = Hashtbl.create 16;
    logs = Hashtbl.create 8;
    tick = 0;
    puts = 0;
    put_bytes = 0;
    gets = 0;
    evictions = 0;
    evicted_bytes = 0;
    faults = 0;
    faulted_bytes = 0;
    appends = 0;
    append_bytes = 0;
    truncates = 0;
    blocks_high = 0;
  }

let blocks_for t bytes =
  if bytes = 0 then 1 else (bytes + t.block_bytes - 1) / t.block_bytes

let blocks_used t = t.capacity - t.free_count

let note_high t =
  let used = blocks_used t in
  if used > t.blocks_high then t.blocks_high <- used

let free_blocks t bs =
  t.free <- List.rev_append bs t.free;
  t.free_count <- t.free_count + List.length bs

(* Evict the least-recently-used hot record: blocks back to the free
   list, bytes demoted to the cold tier. *)
let evict_one t =
  let victim =
    Hashtbl.fold
      (fun _ r acc ->
        if r.r_cold then acc
        else
          match acc with
          | Some v when v.r_tick <= r.r_tick -> acc
          | _ -> Some r)
      t.records None
  in
  match victim with
  | None -> false
  | Some r ->
      free_blocks t r.r_blocks;
      r.r_blocks <- [];
      r.r_cold <- true;
      t.evictions <- t.evictions + 1;
      t.evicted_bytes <- t.evicted_bytes + Bytes.length r.r_data;
      true

let rec alloc t n =
  if n > t.capacity then failwith "Store: record larger than the stable store";
  if t.free_count >= n then begin
    let rec take k acc rest =
      if k = 0 then (acc, rest)
      else
        match rest with
        | b :: tl -> take (k - 1) (b :: acc) tl
        | [] -> assert false
    in
    let taken, rest = take n [] t.free in
    t.free <- rest;
    t.free_count <- t.free_count - n;
    note_high t;
    taken
  end
  else if evict_one t then alloc t n
  else failwith "Store: stable store exhausted (nothing left to evict)"

let touch t r =
  t.tick <- t.tick + 1;
  r.r_tick <- t.tick

let put t ~key data =
  let r =
    match Hashtbl.find_opt t.records key with
    | Some r ->
        free_blocks t r.r_blocks;
        r.r_blocks <- [];
        r
    | None ->
        let r = { r_data = Bytes.empty; r_blocks = []; r_cold = false; r_tick = 0 } in
        Hashtbl.add t.records key r;
        r
  in
  r.r_data <- Bytes.copy data;
  r.r_cold <- false;
  r.r_blocks <- alloc t (blocks_for t (Bytes.length data));
  touch t r;
  t.puts <- t.puts + 1;
  t.put_bytes <- t.put_bytes + Bytes.length data

let get t ~key =
  match Hashtbl.find_opt t.records key with
  | None -> None
  | Some r ->
      t.gets <- t.gets + 1;
      if r.r_cold then begin
        (* Fault the record back into the hot tier. *)
        r.r_blocks <- alloc t (blocks_for t (Bytes.length r.r_data));
        r.r_cold <- false;
        t.faults <- t.faults + 1;
        t.faulted_bytes <- t.faulted_bytes + Bytes.length r.r_data
      end;
      touch t r;
      Some (Bytes.copy r.r_data)

let mem t ~key = Hashtbl.mem t.records key

let is_cold t ~key =
  match Hashtbl.find_opt t.records key with
  | Some r -> r.r_cold
  | None -> false

let delete t ~key =
  match Hashtbl.find_opt t.records key with
  | None -> ()
  | Some r ->
      free_blocks t r.r_blocks;
      Hashtbl.remove t.records key

let log_of t name =
  match Hashtbl.find_opt t.logs name with
  | Some l -> l
  | None ->
      let l = { l_entries = 0; l_bytes = 0; l_blocks = [] } in
      Hashtbl.add t.logs name l;
      l

let append t ~log ~bytes =
  if bytes < 0 then invalid_arg "Store.append: negative size";
  let l = log_of t log in
  let before = blocks_for t l.l_bytes in
  l.l_entries <- l.l_entries + 1;
  l.l_bytes <- l.l_bytes + bytes;
  let after = blocks_for t l.l_bytes in
  if after > before then l.l_blocks <- List.rev_append (alloc t (after - before)) l.l_blocks;
  t.appends <- t.appends + 1;
  t.append_bytes <- t.append_bytes + bytes

let log_entries t ~log =
  match Hashtbl.find_opt t.logs log with Some l -> l.l_entries | None -> 0

let log_bytes t ~log =
  match Hashtbl.find_opt t.logs log with Some l -> l.l_bytes | None -> 0

let truncate t ~log =
  match Hashtbl.find_opt t.logs log with
  | None -> ()
  | Some l ->
      free_blocks t l.l_blocks;
      l.l_blocks <- [];
      l.l_entries <- 0;
      l.l_bytes <- 0;
      t.truncates <- t.truncates + 1

let stats t =
  let cold_records, cold_bytes =
    Hashtbl.fold
      (fun _ r (n, b) ->
        if r.r_cold then (n + 1, b + Bytes.length r.r_data) else (n, b))
      t.records (0, 0)
  in
  {
    s_puts = t.puts;
    s_put_bytes = t.put_bytes;
    s_gets = t.gets;
    s_evictions = t.evictions;
    s_evicted_bytes = t.evicted_bytes;
    s_faults = t.faults;
    s_faulted_bytes = t.faulted_bytes;
    s_appends = t.appends;
    s_append_bytes = t.append_bytes;
    s_truncates = t.truncates;
    s_blocks_used = blocks_used t;
    s_blocks_free = t.free_count;
    s_blocks_high = t.blocks_high;
    s_cold_records = cold_records;
    s_cold_bytes = cold_bytes;
  }
