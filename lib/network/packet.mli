(** A network packet: routing header plus an opaque payload.

    The payload type is a parameter so that this layer stays independent of
    the runtime's message representation. [size_bytes] covers the payload
    only; the link model adds the routing header itself. *)

type 'a t = {
  src : int;  (** sending node *)
  dst : int;  (** destination node *)
  size_bytes : int;  (** payload size on the wire *)
  payload : 'a;
}

val make : src:int -> dst:int -> size_bytes:int -> 'a -> 'a t

val header_bytes : int
(** Fixed per-packet routing header (routing info + handler word). *)

val batch_frame_bytes : int
(** Per-frame length word inside an aggregated (multi-frame) packet.
    An aggregated frame costs this instead of a full {!header_bytes} —
    the per-frame saving that message coalescing banks on the wire. *)

val wire_bytes : 'a t -> int
(** Total bytes a packet occupies on a link. *)
