(** Simulated per-node stable store: a block-allocated heap with a free
    list, LRU eviction to a cold tier, and append-only journal regions.

    Named {e records} hold checkpoint images. When the hot tier's free
    list runs dry, the least-recently-used record is {e evicted}: its
    blocks return to the free list, its bytes survive in the cold tier,
    and the next {!get} {e faults} it back (re-allocating hot blocks).
    {e Journals} are append-only byte streams that grow block by block
    and are never evicted; {!truncate} resets one when a checkpoint
    subsumes it.

    Recency is a logical access tick, not wall-clock time, so the store
    behaves identically under deterministic replay. *)

type t

val create : ?block_bytes:int -> ?blocks:int -> unit -> t
(** A store of [blocks] hot blocks of [block_bytes] each (defaults:
    4096 x 256 B = 1 MiB hot tier). *)

(** {2 Records (checkpoints)} *)

val put : t -> key:string -> bytes -> unit
(** Writes (or overwrites) a record. The store keeps its own copy. May
    evict cold-able records to make room; raises [Failure] only if the
    record alone exceeds the whole hot tier. *)

val get : t -> key:string -> bytes option
(** Reads a record back (a fresh copy), faulting it in from the cold
    tier if it was evicted. *)

val mem : t -> key:string -> bool

val is_cold : t -> key:string -> bool
(** Whether the record currently lives in the cold tier (its next
    {!get} will fault). *)

val delete : t -> key:string -> unit

(** {2 Journals} *)

val append : t -> log:string -> bytes:int -> unit
(** Appends one entry of [bytes] to the named journal (creating it on
    first use). Journal blocks are allocated from the same free list as
    records but are never evicted. *)

val log_entries : t -> log:string -> int
val log_bytes : t -> log:string -> int

val truncate : t -> log:string -> unit
(** Empties the journal and frees its blocks. *)

(** {2 Accounting} *)

type stats = {
  s_puts : int;
  s_put_bytes : int;
  s_gets : int;
  s_evictions : int;
  s_evicted_bytes : int;
  s_faults : int;  (** cold-tier fault-backs *)
  s_faulted_bytes : int;
  s_appends : int;
  s_append_bytes : int;
  s_truncates : int;
  s_blocks_used : int;
  s_blocks_free : int;
  s_blocks_high : int;  (** high-water mark of blocks in use *)
  s_cold_records : int;
  s_cold_bytes : int;
}

val stats : t -> stats
