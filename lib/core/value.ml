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

let unit = Unit
let bool b = Bool b
let int i = Int i
let float f = Float f
let str s = Str s
let addr a = Addr a
let list l = List l
let tuple l = Tuple l

let type_name = function
  | Unit -> "unit"
  | Bool _ -> "bool"
  | Int _ -> "int"
  | Float _ -> "float"
  | Str _ -> "string"
  | Addr _ -> "addr"
  | List _ -> "list"
  | Tuple _ -> "tuple"

let mismatch expected v =
  invalid_arg
    (Printf.sprintf "Value: expected %s, got %s" expected (type_name v))

let to_bool = function Bool b -> b | v -> mismatch "bool" v
let to_int = function Int i -> i | v -> mismatch "int" v
let to_float = function Float f -> f | v -> mismatch "float" v
let to_str = function Str s -> s | v -> mismatch "string" v
let to_addr = function Addr a -> a | v -> mismatch "addr" v
let to_list = function List l -> l | v -> mismatch "list" v
let equal (a : t) (b : t) = a = b

let rec size_words = function
  | Unit | Bool _ | Int _ -> 1
  | Float _ -> 2
  | Str s -> 1 + ((String.length s + 3) / 4)
  | Addr _ -> 2
  | List l | Tuple l -> 1 + List.fold_left (fun acc v -> acc + size_words v) 0 l

let size_bytes v = 4 * size_words v
let pp_addr ppf a = Format.fprintf ppf "<%d:%d>" a.node a.slot

let rec pp ppf = function
  | Unit -> Format.pp_print_string ppf "()"
  | Bool b -> Format.pp_print_bool ppf b
  | Int i -> Format.pp_print_int ppf i
  | Float f -> Format.pp_print_float ppf f
  | Str s -> Format.fprintf ppf "%S" s
  | Addr a -> pp_addr ppf a
  | List l ->
      Format.fprintf ppf "[@[%a@]]"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") pp)
        l
  | Tuple l ->
      Format.fprintf ppf "(@[%a@])"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ") pp)
        l
