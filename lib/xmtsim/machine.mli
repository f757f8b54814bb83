(** The cycle-accurate XMT machine (paper §III, Fig. 1, Fig. 3).

    Execution-driven simulation: TCUs and the Master TCU ask the
    functional model to issue instructions; memory operations travel as
    packages through the cluster outbox, the interconnection network, the
    hashed shared cache modules and DRAM, with contention and queueing at
    each stage.  Values are read/written {e when the package is serviced},
    so relaxed-memory outcomes (Fig. 6) are faithful.

    TCUs may only fetch instructions inside the broadcast spawn-join
    region; violating this (e.g. compiling with the Fig. 9 repair
    disabled) faults the run — the hardware constraint that makes the
    compiler post-pass load-bearing. *)

type t

exception Sim_error of string

type result = {
  output : string;
  cycles : int;
  halted : bool;  (** false when the run hit the cycle budget *)
}

val create : ?config:Config.t -> Isa.Program.image -> t

(** Run to completion (halt) or until [max_cycles].  A fault of the
    simulated program (a bad address, a TCU leaving the spawn region, ...)
    raises {!Funcmodel.Fault} naming the TCU ([-1]: the master) and pc. *)
val run : ?max_cycles:int -> t -> result

val config : t -> Config.t
val stats : t -> Stats.t
val output : t -> string
val cycles : t -> int
val mem : t -> Mem.t

(** Diagnostics: per-(module, subtree-side) ICN merge backlog (cycles). *)
val icn_backlog : t -> int array array

(** Executed TCU instructions per cluster — the spatial activity behind
    the floorplan visualization and per-cluster power attribution. *)
val cluster_activity : t -> int array
val globals : t -> int array  (** the global PS register file *)

(** Host-side throughput: events processed by the desim scheduler so far
    (events/sec = this over wall-clock). *)
val events_processed : t -> int

(* -------- runtime control (activity plug-in interface, §III-B) -------- *)

type domain = Clusters | Icn | Caches | Dram

val set_period : t -> domain -> int -> unit
val period : t -> domain -> int

(* -------- clock gating (§III-C) -------- *)

(** Enable/disable clock gating (on by default).  When on, each clock
    domain sleeps while it provably has no work (caches: all input queues,
    MSHRs and the DRAM queue empty; DRAM: queue empty and no fill in
    flight; clusters: no spawn active, outboxes/returns empty and the
    master parked on a scheduled callback; ICN: always — transfers are
    their own events) and is woken, on its period grid, by the events that
    create work.  Gated and ungated runs produce bit-identical output,
    cycle counts, stats and traces; only the host-side event count
    ({!events_processed}) differs.  Must be called before the first
    {!run}; raises {!Sim_error} afterwards. *)
val set_gating : t -> bool -> unit

val gating_enabled : t -> bool

(** Is the domain's clock currently gated off?  The DVFS governor records
    this on its decisions so a throttled-while-asleep domain is not
    double-counted. *)
val domain_sleeping : t -> domain -> bool

(** Export per-domain clock activity into a metrics registry:
    [sim.clock.ticks{domain}] and [sim.clock.skipped_ticks{domain}]
    counters (fired ticks vs. the estimate of ticks gating skipped) and
    the [sim.clock.period{domain}] gauge. *)
val export_clocks : t -> Obs.Metrics.t -> unit

(** [add_activity_plugin t ~interval hook] — [hook t cycle] runs every
    [interval] cluster-clock cycles during the simulation.  Activity
    plug-ins may retune clocks, so the cluster clock stays ungated while
    one is registered. *)
val add_activity_plugin : t -> interval:int -> (t -> int -> unit) -> unit

(* -------- passive observers (filter plug-ins §III-B, traces §III-E) -------- *)

(** [attach t probe] installs a passive observer and returns the thunk
    that detaches it.  All attached probes see every hook, in attach
    order.  Probes observe; they never schedule events, wake clocks or
    change machine state, so an observed run is bit-identical to an
    unobserved one: output, cycles, {!Stats.t} and even
    {!events_processed} (clock gating is untouched).  With nothing
    attached each hook site costs one option check.  Attaching or
    detaching between runs, or from inside a callback, is allowed.

    The observers themselves live next to their state:
    {!Profile.probe} (CPI stacks), {!Racedetect.probe} (dynamic race
    detection), {!Heartbeat.probe} (live telemetry stream),
    {!Trace.span_probe} (Chrome trace spans), {!Trace.attach} and
    {!Trace.attach_packages} (text traces) and {!Plugin.probe} (filter
    plug-ins). *)
val attach : t -> Probe.t -> unit -> unit

(** The loaded program image. *)
val image : t -> Isa.Program.image

(** Cluster-clock grid ticks elapsed so far, fired or gated away. *)
val grid_ticks : t -> int

(* -------- checkpoints (§III-E) -------- *)

type snapshot

(** Keep running in small increments until the machine is quiescent or
    halted — used to take the "checkpoint at a user-given point" of
    §III-E: run to the requested cycle, then to the next quiescent
    boundary, then {!checkpoint}. *)
val run_to_quiescent : t -> unit

(** Build a snapshot from raw architectural state — used by
    {!Functional_mode.snapshot} to hand a functionally-fast-forwarded
    state to the cycle-accurate machine (phase sampling, §III-F). *)
val make_snapshot :
  mem:Mem.t ->
  regs:int array ->
  fregs:float array ->
  pc:int ->
  globals:int array ->
  output:string ->
  snapshot

(** Snapshot machine state.  Only legal while the machine is in serial
    mode with no outstanding master memory operation (e.g. before [run],
    or from an activity plug-in during a serial phase); raises
    {!Sim_error} otherwise. *)
val checkpoint : t -> snapshot

(** Restore into a machine created from the same image/config. *)
val restore : t -> snapshot -> unit

val snapshot_to_file : snapshot -> string -> unit
val snapshot_of_file : string -> snapshot
