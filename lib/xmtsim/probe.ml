(** The machine's single observation seam (paper §III-B filter plug-ins,
    §III-E traces).

    A probe is a record of passive callbacks.  {!Machine.attach} installs
    one; the machine calls it at each hook site after a single option
    check, so a machine with nothing attached pays that check and
    nothing else.  Callbacks must not touch machine state, schedule
    events or wake clocks: an attached probe never changes cycles, stats,
    output or the host-side event count.  Observers that need the current
    simulated time read {!Machine.cycles}.

    TCU ids are global; the Master TCU is [tcu = -1].  Addresses are
    byte addresses; [-1] means "no address". *)

(** Why a TCU did not issue this cycle, or a master-side window.  A TCU's
    [Mem] or [Fence] wait begins in the cycle it issues; the TCU waits
    from the next cluster cycle on, and the reply (release) that ends the
    wait in cycle [c] arrives before the TCU's turn, so [c] is not waited. *)
type stall =
  | Fu_busy  (** shared MDU/FPU busy: the instruction at [pc] retries *)
  | Latency  (** multi-cycle latency of the last issued instruction *)
  | Mem
      (** TCU: it began waiting on the reply to its memory instruction at
          [pc] ([ticks] = 0); the {!reply} that resumes it ends the wait.
          Master: a whole DRAM-miss window, reported when the line
          arrives *)
  | Ps  (** waiting on a prefix-sum *)
  | Fence
      (** TCU: its fence at [pc] began waiting for non-blocking stores to
          drain ([ticks] = 0); the {!release} ends the wait *)
  | Spawn  (** master: the spawn broadcast window, at the spawn *)
  | Join  (** master: the join window, when the barrier is reached *)
  | Done  (** the TCU's virtual-thread loop ran past the spawn bound *)

(** How a reply left its TCU. *)
type resume =
  | Not_waiting  (** the TCU was not parked on this reply *)
  | Resumed  (** the reply ended the TCU's memory wait *)
  | Resumed_by_prefetch  (** a late prefetch fill ended the wait *)

(** Lifecycle stamps of one memory request (simulated time), written by
    the machine at each station.  Probes read them; they never write. *)
type lifecycle = {
  mutable l_born : int;  (** enqueued into the cluster outbox *)
  mutable l_icn_wait : int;  (** merge-contention delay in the ICN *)
  mutable l_arrive : int;  (** dequeued into the cache module's queue *)
  mutable l_svc : int;  (** reply handed to the return ICN *)
  mutable l_mod : int;  (** destination cache module *)
  mutable l_hit : bool;
}

type t = {
  issue : tcu:int -> pc:int -> Isa.Instr.t -> addr:int -> unit;
      (** an instruction issued; [addr] is its memory address or [-1] *)
  stall : tcu:int -> pc:int -> stall -> ticks:int -> unit;
      (** [Fu_busy], [Latency] and [Ps] come once per cycle ([ticks] =
          1); a TCU's [Mem] and [Fence] waits come once, when they begin,
          and [Done] once ([ticks] = 0); the master's windows come once
          with their length in cluster cycles.  [pc] is the TCU's program
          counter, or the instruction that waits ([Mem], [Fence], [Spawn],
          [Join]) *)
  station :
    stage:string -> kind:string -> addr:int -> tcu:int -> pc:int -> module_:int -> unit;
      (** a package passed a station: "icn-inject", "module-arrive",
          "cache-hit"/"cache-miss", "dram-fill" (a line fill: [tcu] and
          [pc] are [-1]) or "reply" ([module_] is [-1]) *)
  access : tcu:int -> pc:int -> addr:int -> write:bool -> unit;
      (** a shared-memory read or write took effect (service time) *)
  reply : tcu:int -> kind:string -> addr:int -> lifecycle -> resume -> unit;
      (** a reply was delivered to its cluster *)
  sync : tcu:int -> unit;  (** a [ps]/[psm] completed: acquire + release *)
  release : tcu:int -> unit;  (** a fence completed: stores drained *)
  spawn : lo:int -> hi:int -> unit;  (** TCUs start a spawn region *)
  join : unit -> unit;  (** the master resumes after a join *)
  cluster_tick : int -> unit;  (** a fired cluster-clock tick (grid cycle) *)
  run_done : unit -> unit;  (** a run ended with the machine halted *)
}

let none =
  {
    issue = (fun ~tcu:_ ~pc:_ _ ~addr:_ -> ());
    stall = (fun ~tcu:_ ~pc:_ _ ~ticks:_ -> ());
    station = (fun ~stage:_ ~kind:_ ~addr:_ ~tcu:_ ~pc:_ ~module_:_ -> ());
    access = (fun ~tcu:_ ~pc:_ ~addr:_ ~write:_ -> ());
    reply = (fun ~tcu:_ ~kind:_ ~addr:_ _ _ -> ());
    sync = (fun ~tcu:_ -> ());
    release = (fun ~tcu:_ -> ());
    spawn = (fun ~lo:_ ~hi:_ -> ());
    join = (fun () -> ());
    cluster_tick = (fun _ -> ());
    run_done = (fun () -> ());
  }

(** [a] then [b] at every hook; a hook only one side fills is taken as is. *)
let both a b =
  let pick nop f g fg = if f == nop then g else if g == nop then f else fg in
  {
    issue = pick none.issue a.issue b.issue (fun ~tcu ~pc i ~addr ->
      a.issue ~tcu ~pc i ~addr; b.issue ~tcu ~pc i ~addr);
    stall = pick none.stall a.stall b.stall (fun ~tcu ~pc s ~ticks ->
      a.stall ~tcu ~pc s ~ticks; b.stall ~tcu ~pc s ~ticks);
    station = pick none.station a.station b.station
        (fun ~stage ~kind ~addr ~tcu ~pc ~module_ ->
          a.station ~stage ~kind ~addr ~tcu ~pc ~module_;
          b.station ~stage ~kind ~addr ~tcu ~pc ~module_);
    access = pick none.access a.access b.access (fun ~tcu ~pc ~addr ~write ->
      a.access ~tcu ~pc ~addr ~write; b.access ~tcu ~pc ~addr ~write);
    reply = pick none.reply a.reply b.reply (fun ~tcu ~kind ~addr lc r ->
      a.reply ~tcu ~kind ~addr lc r; b.reply ~tcu ~kind ~addr lc r);
    sync = pick none.sync a.sync b.sync (fun ~tcu -> a.sync ~tcu; b.sync ~tcu);
    release = pick none.release a.release b.release (fun ~tcu -> a.release ~tcu; b.release ~tcu);
    spawn = pick none.spawn a.spawn b.spawn (fun ~lo ~hi -> a.spawn ~lo ~hi; b.spawn ~lo ~hi);
    join = pick none.join a.join b.join (fun () -> a.join (); b.join ());
    cluster_tick = pick none.cluster_tick a.cluster_tick b.cluster_tick (fun c ->
      a.cluster_tick c; b.cluster_tick c);
    run_done = pick none.run_done a.run_done b.run_done (fun () -> a.run_done (); b.run_done ());
  }
