type t = int

let zero = 0
let of_us us = int_of_float (Float.round (us *. 1_000.))
let to_us t = float_of_int t /. 1_000.
let to_ms t = float_of_int t /. 1_000_000.
let add = ( + )
let max = Stdlib.max
let compare = Int.compare

let pp ppf t =
  let f = float_of_int t in
  if t < 10_000 then Format.fprintf ppf "%dns" t
  else if t < 10_000_000 then Format.fprintf ppf "%.2fus" (f /. 1e3)
  else if t < 10_000_000_000 then Format.fprintf ppf "%.2fms" (f /. 1e6)
  else Format.fprintf ppf "%.3fs" (f /. 1e9)
