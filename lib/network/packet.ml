type 'a t = { src : int; dst : int; size_bytes : int; payload : 'a }

let make ~src ~dst ~size_bytes payload =
  if size_bytes < 0 then invalid_arg "Packet.make: negative size";
  { src; dst; size_bytes; payload }

(* Two words of routing information plus the self-dispatching handler
   address, as in the paper's 4-word minimal message (header + one-word
   argument). *)
let header_bytes = 12

(* One length word per frame inside a multi-frame (aggregated) packet:
   the batch shares a single routing header, but the receiver must be
   able to split the payload back into frames. *)
let batch_frame_bytes = 4

let wire_bytes p = header_bytes + p.size_bytes
