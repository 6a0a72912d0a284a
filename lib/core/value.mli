(** Runtime values exchanged in messages and held in state variables.

    Mail addresses are the paper's [(processor number, real pointer)]
    pairs ({!addr}); they are the only entities that can be referred to
    from remote nodes. Other data (numbers, strings, lists, tuples) are
    private and are copied when they cross a node boundary — values are
    immutable, so structural sharing is safe and "serialisation" reduces
    to computing the wire size. *)

type addr = { node : int; slot : int }

type t =
  | Unit
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Addr of addr
  | List of t list
  | Tuple of t list

val unit : t
val bool : bool -> t
val int : int -> t
val float : float -> t
val str : string -> t
val addr : addr -> t
val list : t list -> t
val tuple : t list -> t

(** {2 Projections} — raise [Invalid_argument] on a type mismatch,
    mirroring the static typing the paper assumes. *)

val to_bool : t -> bool
val to_int : t -> int
val to_float : t -> float
val to_str : t -> string
val to_addr : t -> addr
val to_list : t -> t list

val equal : t -> t -> bool

val size_words : t -> int
(** Wire size in 4-byte words, used for bandwidth accounting and the
    active-path per-word buffering cost. *)

val size_bytes : t -> int

val pp_addr : Format.formatter -> addr -> unit
val pp : Format.formatter -> t -> unit
