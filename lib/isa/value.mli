(** Runtime values stored in memory cells and moved in data packages.

    The simulator works at transaction level (paper §III-A): a memory cell
    holds a whole typed word rather than bytes.  Integer words wrap at 32
    bits like the hardware's. *)

type t = Int of int | Flt of float

val zero : t
val int : int -> t
val flt : float -> t

(** Truncate to signed 32-bit two's complement, like the ALU does. *)
val wrap32 : int -> int

(** Interpret as integer; raises [Type_error] on a float cell. *)
val to_int : t -> int

(** Interpret as float; the all-zero word [Int 0] reads as [0.0], any
    other integer cell raises [Type_error]. *)
val to_flt : t -> float

exception Type_error of string

val pp : Format.formatter -> t -> unit
val to_string : t -> string
val equal : t -> t -> bool
