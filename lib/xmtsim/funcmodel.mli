(** The functional model (paper Fig. 3): operational definition of every
    instruction plus the register state of one hardware context.

    The simulator is execution-driven: the cycle-accurate model asks the
    functional model to {e issue} the instruction at the context's PC; the
    result describes what must happen in simulated time (a memory round
    trip, a prefix-sum, a spawn...).  Register effects of pure instructions
    are applied immediately; memory effects are applied by whoever owns the
    memory timing (the cache module in cycle mode, the interpreter loop in
    functional mode), keeping relaxed-consistency outcomes faithful. *)

type ctx = {
  regs : int array;  (** 32 integer registers; r0 hardwired to 0 *)
  fregs : float array;
  mutable pc : int;
}

val make_ctx : unit -> ctx

(** Copy all registers of [src] into [dst] — the broadcast of master
    registers to TCUs at spawn (§IV-B). *)
val copy_regs : src:ctx -> dst:ctx -> unit

exception Runtime_error of { pc : int; msg : string }

(** The simulated program faulted while the instruction at [pc] ran on
    [tcu]: the TCU in cycle mode, the virtual thread id in functional
    mode, [-1] for the Master TCU. *)
exception Fault of { tcu : int; pc : int; msg : string }

(** The {!Fault} for an exception escaping the simulation of the
    instruction at [pc] on [tcu] ({!Runtime_error}, {!Mem.Fault},
    {!Isa.Value.Type_error}); any other exception is returned as is. *)
val fault : tcu:int -> pc:int -> exn -> exn

type issue =
  | Done  (** pure op; registers and pc updated *)
  | Load of { dst : [ `I of int | `F of int ]; addr : int; ro : bool }
  | Store of { addr : int; value : Isa.Value.t; nb : bool }
  | Psm of { dst : int; addr : int; inc : int }
  | Prefetch of { addr : int }
  | Ps of { dst : int; g : int; inc : int }
  | Spawn of { lo : int; hi : int }
  | Join
  | Chkid of { id : int }
  | Mfg of { dst : int; g : int }
  | Mtg of { g : int; src : int }
  | Fence
  | Halt
  | Output of string  (** sys print; already formatted *)

(** Execute the instruction at [ctx.pc].  Advances [pc] (to the branch
    target for taken branches).  [read_str] is needed only by [pstr]. *)
val issue : Isa.Program.image -> ctx -> read_str:(int -> string) -> issue

(** Apply a completed load's value to the destination register. *)
val complete_load : ctx -> [ `I of int | `F of int ] -> Isa.Value.t -> unit
