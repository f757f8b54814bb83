type t = Int of int | Flt of float

exception Type_error of string

let zero = Int 0

let wrap32 x =
  let m = x land 0xFFFFFFFF in
  if m land 0x80000000 <> 0 then m - 0x100000000 else m

let int x = Int (wrap32 x)
let flt x = Flt x

let to_int = function
  | Int x -> x
  | Flt f -> raise (Type_error (Printf.sprintf "expected int, got float %g" f))

(* an all-zero word (e.g. an auto-zeroed cell) is 0.0 in IEEE 754 *)
let to_flt = function
  | Flt f -> f
  | Int 0 -> 0.0
  | Int x -> raise (Type_error (Printf.sprintf "expected float, got int %d" x))

let pp ppf = function
  | Int x -> Format.fprintf ppf "%d" x
  | Flt f -> Format.fprintf ppf "%h" f

let to_string v = Format.asprintf "%a" pp v

let equal a b =
  match (a, b) with
  | Int x, Int y -> x = y
  | Flt x, Flt y -> Float.equal x y
  | Int _, Flt _ | Flt _, Int _ -> false
