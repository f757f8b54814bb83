module I = Isa.Instr
module F = Funcmodel
module V = Isa.Value

exception Sim_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Sim_error s)) fmt

type dst = [ `I of int | `F of int ]

type req =
  | Rload of { dst : dst; ro : bool }
  | Rpref
  | Rstore of { value : V.t; nb : bool }
  | Rpsm of { inc : int; dst : int }

(* Requests travelling cluster -> ICN -> cache module ("packages").
   Each carries the pc of the issuing instruction so every memory-touching
   event exposes (address, tcu, pc) to observers, and the request's
   lifecycle stamps, written at each station and read at reply delivery by
   the latency histograms and any attached probe. *)
type pkg = {
  addr : int;
  cl : int;
  tcu : int;
  pc : int;
  req : req;
  lc : Probe.lifecycle;
}

(* A reply travels back module -> ICN -> cluster with its request (and so
   its lifecycle): [v] is the value read, or a psm's old value; a store's
   ack carries none. *)
type reply = { pk : pkg; v : V.t }

(* A TCU can act on a cluster tick in [Trun], [Tfuwait] and [Tpswait]; it
   is parked in [Tmemwait] and [Tfence] until a reply (or the fence's
   last store ack) resumes it; [Tidle] and [Tdone] wait for a spawn. *)
type tcu_state =
  | Tidle
  | Trun
  | Tmemwait
  | Tfuwait  (* [fu_left] more cycles of a multi-cycle op *)
  | Tpswait
  | Tfence
  | Tdone

type tcu = {
  tid : int;
  tcl : int;
  slot : int;  (* index in its cluster *)
  ctx : F.ctx;
  mutable st : tcu_state;  (* written only by [set_state] *)
  mutable fu_left : int;
  mutable pending : int;
  pbuf : Prefetch_buffer.t;
}

type cluster = {
  cid : int;
  ctcus : tcu array;
  mdu : int array;  (* busy-until times per shared unit *)
  fpu : int array;
  outbox : pkg Queue.t;
  returns : reply Queue.t;
  rocache : Tags.t;
  mutable rr : int;
  (* the active set: the slots of the TCUs that can act, ascending *)
  act : int array;
  mutable nact : int;
  visit : int array;  (* phase-2 scratch: the active slots in visit order *)
  mutable parked : int;  (* TCUs in Tmemwait or Tfence *)
}

type master_state = Mrun | Mstall | Mmemwait | Mspawnwait | Mhalted

type mshr_entry = { mutable waiters : pkg list (* reversed *) }

type cache_module = {
  mid : int;
  inq : pkg Queue.t;
  tags : Tags.t;
  mshr : (int, mshr_entry) Hashtbl.t;  (* line addr -> waiters *)
}

type t = {
  cfg : Config.t;
  img : Isa.Program.image;
  slots : int array;  (* Stats.slots of the program *)
  sched : Desim.Scheduler.t;
  clk_cluster : Desim.Clock.t;
  clk_icn : Desim.Clock.t;
  clk_cache : Desim.Clock.t;
  clk_dram : Desim.Clock.t;
  memory : Mem.t;
  read_str : int -> string;  (* [print_str] reads its operand from memory *)
  globals : int array;
  stats : Stats.t;
  out_buf : Buffer.t;
  clusters : cluster array;
  modules : cache_module array;
  dram_q : pkg Queue.t;  (* packages awaiting a DRAM slot, at module l_mod *)
  master : F.ctx;
  master_cache : Tags.t;
  mutable master_st : master_state;
  mutable mstall_left : int;  (* cycles left in [Mstall] *)
  mutable halted : bool;
  (* spawn state *)
  mutable spawn_active : bool;
  mutable spawn_bound : int;
  mutable spawn_region : int * int;  (* (spawn_idx, join_idx) *)
  mutable done_count : int;
  mutable pending_total : int;
  mutable queued : int;  (* packages in cluster outboxes and return queues *)
  join_of : (int, int) Hashtbl.t;
  jitter : int array array;  (* per (cluster, module) arbitration jitter *)
  cluster_instrs : int array;  (* executed instructions per cluster *)
  icn_next_free : int array array;
      (* mesh-of-trees merge contention: per (module, subtree side), the
         earliest cycle at which the next packet can be delivered.  Each
         module accepts one packet per cycle per subtree half; packets from
         different halves may freely invert, packets from the same source
         keep their order (memory-model rule 1). *)
  mutable probes : Probe.t list;  (* attached observers, in attach order *)
  mutable probe : Probe.t option;  (* their composition; None = unobserved *)
  (* [probe] again where it fills the issue, stall or cluster-tick hook:
     those run per instruction or per tick, and an observer that leaves
     them empty pays no call there *)
  mutable probe_issue : Probe.t option;
  mutable probe_stall : Probe.t option;
  mutable probe_tick : Probe.t option;
  mutable started : bool;
  (* clock gating *)
  mutable gating : bool;
  mutable has_plugin : bool;
      (* activity plug-ins sample on cluster ticks; cluster gating would
         change their sampling times, so it is disabled when one attaches *)
  mutable dram_fills : int;  (* DRAM line fills in flight *)
  (* the TCU (-1: master) and pc of the operation in progress, which a
     fault escaping the run is attributed to *)
  mutable at_tcu : int;
  mutable at_pc : int;
}

type result = { output : string; cycles : int; halted : bool }

(* ------------------------------------------------------------------ *)

(* Hashing on the address avoids module hotspots (paper §II); a simple
   multiplicative hash degenerates for power-of-two module counts, so mix
   the line number properly (SplitMix64 finalizer). *)
let hash_addr cfg addr =
  let line = addr / (4 * cfg.Config.cache_line_words) in
  let z = Int64.mul (Int64.of_int line) 0x9E3779B97F4A7C15L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.logxor z (Int64.shift_right_logical z 27) in
  Int64.to_int (Int64.shift_right_logical z 3) mod cfg.Config.num_cache_modules

let compute_join_map img =
  let join_of = Hashtbl.create 8 in
  let open_spawn = ref None in
  Array.iteri
    (fun i ins ->
      match ins with
      | I.Spawn _ -> (
        match !open_spawn with
        | Some _ -> fail "nested spawn in program text at %d" i
        | None -> open_spawn := Some i)
      | I.Join -> (
        match !open_spawn with
        | Some s ->
          Hashtbl.replace join_of s i;
          open_spawn := None
        | None -> fail "join without spawn at %d" i)
      | _ -> ())
    img.Isa.Program.instrs;
  (match !open_spawn with Some s -> fail "unmatched spawn at %d" s | None -> ());
  join_of

let create ?(config = Config.fpga64) img =
  let cfg = config in
  let sched = Desim.Scheduler.create () in
  let clk name period = Desim.Clock.create sched ~name ~period in
  let rng = Desim.Rng.create ~seed:cfg.Config.seed in
  let jitter =
    Array.init cfg.Config.num_clusters (fun _ ->
        Array.init cfg.Config.num_cache_modules (fun _ ->
            if cfg.Config.icn_jitter <= 0 then 0
            else Desim.Rng.int rng (cfg.Config.icn_jitter + 1)))
  in
  let clusters =
    Array.init cfg.Config.num_clusters (fun cid ->
        {
          cid;
          ctcus =
            Array.init cfg.Config.tcus_per_cluster (fun k ->
                {
                  tid = (cid * cfg.Config.tcus_per_cluster) + k;
                  tcl = cid;
                  slot = k;
                  ctx = F.make_ctx ();
                  st = Tidle;
                  fu_left = 0;
                  pending = 0;
                  pbuf =
                    Prefetch_buffer.create ~size:cfg.Config.prefetch_buffer_size
                      ~policy:cfg.Config.prefetch_policy;
                });
          mdu = Array.make (max 1 cfg.Config.mdus_per_cluster) 0;
          fpu = Array.make (max 1 cfg.Config.fpus_per_cluster) 0;
          outbox = Queue.create ();
          returns = Queue.create ();
          rocache =
            Tags.create ~lines:cfg.Config.rocache_lines ~assoc:2
              ~line_words:cfg.Config.cache_line_words;
          rr = 0;
          act = Array.make cfg.Config.tcus_per_cluster 0;
          nact = 0;
          visit = Array.make cfg.Config.tcus_per_cluster 0;
          parked = 0;
        })
  in
  let modules =
    Array.init cfg.Config.num_cache_modules (fun mid ->
        {
          mid;
          inq = Queue.create ();
          tags =
            Tags.create ~lines:cfg.Config.cache_lines ~assoc:cfg.Config.cache_assoc
              ~line_words:cfg.Config.cache_line_words;
          mshr = Hashtbl.create 16;
        })
  in
  let master = F.make_ctx () in
  master.F.pc <- img.Isa.Program.entry;
  let memory = Mem.load img in
  let stats = Stats.create () in
  stats.Stats.req_lat <-
    Some
      (Stats.make_req_latency ~clusters:cfg.Config.num_clusters
         ~modules:cfg.Config.num_cache_modules);
  {
    cfg;
    img;
    slots = Stats.slots img.Isa.Program.instrs;
    sched;
    clk_cluster = clk "clusters" cfg.Config.cluster_period;
    clk_icn = clk "icn" cfg.Config.icn_period;
    clk_cache = clk "caches" cfg.Config.cache_period;
    clk_dram = clk "dram" cfg.Config.dram_period;
    memory;
    read_str = Mem.read_string memory;
    globals = Array.make Isa.Reg.num_globals 0;
    stats;
    out_buf = Buffer.create 256;
    clusters;
    modules;
    dram_q = Queue.create ();
    master;
    master_cache =
      Tags.create ~lines:cfg.Config.master_cache_lines ~assoc:2
        ~line_words:cfg.Config.cache_line_words;
    master_st = Mrun;
    mstall_left = 0;
    halted = false;
    spawn_active = false;
    spawn_bound = -1;
    spawn_region = (-1, -1);
    done_count = 0;
    pending_total = 0;
    queued = 0;
    join_of = compute_join_map img;
    jitter;
    icn_next_free =
      Array.init cfg.Config.num_cache_modules (fun _ -> Array.make 2 0);
    cluster_instrs = Array.make cfg.Config.num_clusters 0;
    probes = [];
    probe = None;
    probe_issue = None;
    probe_stall = None;
    probe_tick = None;
    started = false;
    gating = true;
    has_plugin = false;
    dram_fills = 0;
    at_tcu = -1;
    at_pc = img.Isa.Program.entry;
  }

(* diagnostic: per-(module,side) send-side backlog in cycles *)
let icn_backlog t =
  let now = Desim.Scheduler.now t.sched in
  Array.map (fun sides -> Array.map (fun nf -> max 0 (nf - now)) sides) t.icn_next_free

(* executed TCU instructions per cluster (for spatial activity/power) *)
let cluster_activity t = Array.copy t.cluster_instrs

let config t = t.cfg
let image t = t.img
let stats t = t.stats
let output t = Buffer.contents t.out_buf
let cycles t = Desim.Scheduler.now t.sched
let mem t = t.memory
let globals t = t.globals

(* host-side throughput: events processed by the desim scheduler *)
let events_processed t = Desim.Scheduler.events_processed t.sched

(* cluster-clock grid ticks so far, fired or gated away *)
let grid_ticks t =
  Desim.Clock.cycles t.clk_cluster + Desim.Clock.skipped_ticks t.clk_cluster

(* ------------------------------------------------------------------ *)
(* Probe hooks used at several sites; each costs one option check when
   nothing is attached.  The single-site hooks are written inline. *)

let req_kind = function
  | Rload _ -> "load"
  | Rpref -> "pref"
  | Rstore _ -> "store"
  | Rpsm _ -> "psm"

let station t ~stage pk ~m =
  match t.probe with
  | None -> ()
  | Some p ->
    p.Probe.station ~stage ~kind:(req_kind pk.req) ~addr:pk.addr ~tcu:pk.tcu ~pc:pk.pc
      ~module_:m

let access t ~tcu ~pc ~addr ~write =
  match t.probe with None -> () | Some p -> p.Probe.access ~tcu ~pc ~addr ~write

let sync t ~tcu = match t.probe with None -> () | Some p -> p.Probe.sync ~tcu
let release t ~tcu = match t.probe with None -> () | Some p -> p.Probe.release ~tcu

let stall t (u : tcu) s ~ticks =
  match t.probe_stall with
  | None -> ()
  | Some p -> p.Probe.stall ~tcu:u.tid ~pc:u.ctx.F.pc s ~ticks

(* ------------------------------------------------------------------ *)
(* TCU states and the active sets.  Every state change goes through
   [set_state], which keeps each cluster's active set (the TCUs in Trun,
   Tfuwait or Tpswait, by ascending slot) and its parked count (Tmemwait,
   Tfence) in step with [u.st].  The cluster tick visits only the active
   set and charges the parked TCUs their wait cycle in one step, so its
   cost follows the TCUs that can act, not the cluster's size. *)

type activity = Inactive | Active | Parked

let activity = function
  | Trun | Tfuwait | Tpswait -> Active
  | Tmemwait | Tfence -> Parked
  | Tidle | Tdone -> Inactive

let act_add cl k =
  let i = ref cl.nact in
  while !i > 0 && cl.act.(!i - 1) > k do
    cl.act.(!i) <- cl.act.(!i - 1);
    decr i
  done;
  cl.act.(!i) <- k;
  cl.nact <- cl.nact + 1

let act_remove cl k =
  let i = ref 0 in
  while cl.act.(!i) <> k do
    incr i
  done;
  for j = !i to cl.nact - 2 do
    cl.act.(j) <- cl.act.(j + 1)
  done;
  cl.nact <- cl.nact - 1

let set_state t (u : tcu) st =
  let was = activity u.st and now = activity st in
  u.st <- st;
  if was <> now then begin
    let cl = t.clusters.(u.tcl) in
    (match was with
    | Active -> act_remove cl u.slot
    | Parked -> cl.parked <- cl.parked - 1
    | Inactive -> ());
    match now with
    | Active -> act_add cl u.slot
    | Parked -> cl.parked <- cl.parked + 1
    | Inactive -> ()
  end

(* Park a TCU on the reply to its memory instruction at [pc], or on its
   fence.  The wait is reported once; the reply that resumes the TCU, or
   the fence's release, ends it. *)
let park t (u : tcu) st s ~pc =
  set_state t u st;
  match t.probe_stall with None -> () | Some p -> p.Probe.stall ~tcu:u.tid ~pc s ~ticks:0

let master_stall t ~pc s ~ticks =
  match t.probe_stall with None -> () | Some p -> p.Probe.stall ~tcu:(-1) ~pc s ~ticks

(* ------------------------------------------------------------------ *)
(* ICN transport: event-per-package with per-(cluster,module) jitter that
   preserves same-source-same-destination FIFO ordering (memory model
   rule 1: static routing keeps per-pair order). *)

(* Build a request package, stamping its birth (outbox-enqueue) time. *)
let mk_pkg t (u : tcu) ~pc addr req =
  {
    addr;
    cl = u.tcl;
    tcu = u.tid;
    pc;
    req;
    lc =
      {
        l_born = Desim.Scheduler.now t.sched;
        l_icn_wait = 0;
        l_arrive = 0;
        l_svc = 0;
        l_mod = -1;
        l_hit = false;
      };
  }

(* Queue a package in its cluster's outbox. *)
let send t (cl : cluster) pk =
  Queue.add pk cl.outbox;
  t.queued <- t.queued + 1

let icn_send t pk =
  let cl = pk.cl in
  let m = hash_addr t.cfg pk.addr in
  let now = Desim.Scheduler.now t.sched in
  let side = if cl < Array.length t.clusters / 2 then 0 else 1 in
  let uncontended =
    now + (t.cfg.Config.icn_latency * Desim.Clock.period t.clk_icn)
    + t.jitter.(cl).(m)
  in
  let arrival = max uncontended t.icn_next_free.(m).(side) in
  t.icn_next_free.(m).(side) <- arrival + 1;
  t.stats.Stats.icn_packets <- t.stats.Stats.icn_packets + 1;
  pk.lc.l_mod <- m;
  pk.lc.l_icn_wait <- arrival - uncontended;
  station t ~stage:"icn-inject" pk ~m;
  Desim.Scheduler.schedule t.sched ~prio:Desim.Scheduler.prio_transfer
    ~delay:(arrival - now) (fun () ->
      pk.lc.l_arrive <- Desim.Scheduler.now t.sched;
      station t ~stage:"module-arrive" pk ~m;
      Queue.add pk t.modules.(m).inq;
      (* arrival runs at prio_transfer: the cache tick at this instant (if
         any) already popped, so a sleeping cache domain resumes one period
         later — exactly when an ungated cache would next see the package *)
      Desim.Clock.wake t.clk_cache)

let icn_reply t ~mid r =
  let cl = r.pk.cl in
  let delay =
    (t.cfg.Config.icn_latency * Desim.Clock.period t.clk_icn) + t.jitter.(cl).(mid)
  in
  t.stats.Stats.icn_packets <- t.stats.Stats.icn_packets + 1;
  r.pk.lc.l_svc <- Desim.Scheduler.now t.sched;
  Desim.Scheduler.schedule t.sched ~prio:Desim.Scheduler.prio_transfer ~delay
    (fun () ->
      Queue.add r t.clusters.(cl).returns;
      t.queued <- t.queued + 1;
      Desim.Clock.wake t.clk_cluster)

(* ------------------------------------------------------------------ *)
(* Join logic *)

let total_tcus t = Array.length t.clusters * t.cfg.Config.tcus_per_cluster

let maybe_join t =
  if t.spawn_active && t.done_count = total_tcus t && t.pending_total = 0 then begin
    t.spawn_active <- false;
    Array.iter (fun cl -> Array.iter (fun u -> set_state t u Tidle) cl.ctcus) t.clusters;
    let _, join_idx = t.spawn_region in
    master_stall t ~pc:join_idx Probe.Join ~ticks:t.cfg.Config.join_overhead;
    let delay = t.cfg.Config.join_overhead * Desim.Clock.period t.clk_cluster in
    Desim.Scheduler.schedule t.sched ~delay (fun () ->
        (* master cache may hold lines the TCUs overwrote *)
        Tags.invalidate_all t.master_cache;
        Stats.count_instr t.stats ~master:true t.slots.(join_idx);
        t.master.F.pc <- join_idx + 1;
        t.master_st <- Mrun;
        Desim.Clock.wake t.clk_cluster;
        match t.probe with Some p -> p.Probe.join () | None -> ())
  end

(* ------------------------------------------------------------------ *)
(* Cache modules and DRAM *)

let service_pkg t (m : cache_module) pk =
  (* perform the functional memory effect now and produce the reply *)
  t.at_tcu <- pk.tcu;
  t.at_pc <- pk.pc;
  let v =
    match pk.req with
    | Rload _ | Rpref ->
      let v = Mem.read t.memory pk.addr in
      access t ~tcu:pk.tcu ~pc:pk.pc ~addr:pk.addr ~write:false;
      v
    | Rstore { value; _ } ->
      Mem.write t.memory pk.addr value;
      access t ~tcu:pk.tcu ~pc:pk.pc ~addr:pk.addr ~write:true;
      V.zero
    | Rpsm { inc; _ } ->
      let old = Mem.fetch_add t.memory pk.addr inc in
      t.stats.Stats.psm_ops <- t.stats.Stats.psm_ops + 1;
      (* the psm word itself is the ordering primitive, not a plain access *)
      sync t ~tcu:pk.tcu;
      V.Int old
  in
  let hit_lat = t.cfg.Config.cache_hit_latency * Desim.Clock.period t.clk_cache in
  Desim.Scheduler.schedule t.sched ~delay:hit_lat (fun () ->
      icn_reply t ~mid:m.mid { pk; v })

let dram_fill t (m : cache_module) line =
  Tags.install m.tags line;
  (match t.probe with
  | None -> ()
  | Some p ->
    p.Probe.station ~stage:"dram-fill" ~kind:"line" ~addr:line ~tcu:(-1) ~pc:(-1)
      ~module_:m.mid);
  match Hashtbl.find_opt m.mshr line with
  | None -> ()
  | Some entry ->
    Hashtbl.remove m.mshr line;
    List.iter (fun pk -> service_pkg t m pk) (List.rev entry.waiters)

let module_tick t (m : cache_module) =
  for _ = 1 to t.cfg.Config.cache_ports do
    if not (Queue.is_empty m.inq) then begin
      let pk = Queue.take m.inq in
      let line = Tags.line_of m.tags pk.addr in
      if Tags.lookup m.tags pk.addr then begin
        t.stats.Stats.cache_hits <- t.stats.Stats.cache_hits + 1;
        pk.lc.l_hit <- true;
        station t ~stage:"cache-hit" pk ~m:m.mid;
        service_pkg t m pk
      end
      else begin
        t.stats.Stats.cache_misses <- t.stats.Stats.cache_misses + 1;
        station t ~stage:"cache-miss" pk ~m:m.mid;
        match Hashtbl.find_opt m.mshr line with
        | Some entry -> entry.waiters <- pk :: entry.waiters
        | None ->
          Hashtbl.replace m.mshr line { waiters = [ pk ] };
          Queue.add pk t.dram_q;
          (* Called from a cache tick (prio_tick), so Clock.wake's default
             tie-break cannot tell whether the ungated DRAM tick at this
             instant already popped.  Same-time tick events pop in
             insertion order: the slower clock inserted its event earlier;
             equal periods preserve start order (cache before dram), so
             the DRAM tick pops after us and still sees the package. *)
          Desim.Clock.wake t.clk_dram
            ~tick_at_now:
              (Desim.Clock.period t.clk_dram <= Desim.Clock.period t.clk_cache)
      end
    end
  done

let dram_tick t =
  for _ = 1 to t.cfg.Config.dram_bandwidth do
    if not (Queue.is_empty t.dram_q) then begin
      let pk = Queue.take t.dram_q in
      t.stats.Stats.dram_reads <- t.stats.Stats.dram_reads + 1;
      let m = t.modules.(pk.lc.l_mod) in
      let line = Tags.line_of m.tags pk.addr in
      let delay = t.cfg.Config.dram_latency * Desim.Clock.period t.clk_dram in
      t.dram_fills <- t.dram_fills + 1;
      Desim.Scheduler.schedule t.sched ~delay (fun () ->
          t.dram_fills <- t.dram_fills - 1;
          dram_fill t m line)
    end
  done

(* ------------------------------------------------------------------ *)
(* TCU execution *)

let reply_kind pk =
  match pk.req with Rstore { nb = true; _ } -> "store-ack" | req -> req_kind req

(* Close the request's lifecycle into the per-(cluster, module) latency
   histograms. *)
let observe_latency t (cl : cluster) (lc : Probe.lifecycle) =
  match t.stats.Stats.req_lat with
  | None -> ()
  | Some rl ->
    let now = Desim.Scheduler.now t.sched in
    let cluster = cl.cid and module_ = lc.l_mod in
    Stats.observe_req rl Stats.Licn_wait ~cluster ~module_ lc.l_icn_wait;
    Stats.observe_req rl
      (if lc.l_hit then Stats.Lservice_hit else Stats.Lservice_miss)
      ~cluster ~module_ (lc.l_svc - lc.l_arrive);
    Stats.observe_req rl Stats.Lreply ~cluster ~module_ (now - lc.l_svc);
    Stats.observe_req rl Stats.Ltotal ~cluster ~module_ (now - lc.l_born)

(* wake a TCU parked on this reply *)
let resume t (u : tcu) how =
  if u.st = Tmemwait then begin
    set_state t u Trun;
    how
  end
  else Probe.Not_waiting

let deliver_reply t (cl : cluster) { pk; v } =
  observe_latency t cl pk.lc;
  (match t.probe with
  | None -> ()
  | Some p ->
    p.Probe.station ~stage:"reply" ~kind:(reply_kind pk) ~addr:pk.addr ~tcu:pk.tcu
      ~pc:pk.pc ~module_:(-1));
  let u = cl.ctcus.(pk.tcu mod t.cfg.Config.tcus_per_cluster) in
  t.at_tcu <- u.tid;
  t.at_pc <- pk.pc;
  let resumed =
    match pk.req with
    | Rload { dst; ro } ->
      if ro then Tags.install cl.rocache pk.addr;
      F.complete_load u.ctx dst v;
      resume t u Probe.Resumed
    | Rpref -> (
      match Prefetch_buffer.fill u.pbuf pk.addr v with
      | None -> Probe.Not_waiting
      | Some dst ->
        F.complete_load u.ctx dst v;
        resume t u Probe.Resumed_by_prefetch)
    | Rstore { nb = true; _ } ->
      u.pending <- u.pending - 1;
      t.pending_total <- t.pending_total - 1;
      if u.st = Tfence && u.pending = 0 then begin
        set_state t u Trun;
        release t ~tcu:u.tid (* fence completes: stores drained *)
      end;
      maybe_join t;
      Probe.Not_waiting
    | Rstore { nb = false; _ } -> resume t u Probe.Resumed (* blocking store ack *)
    | Rpsm { dst; _ } ->
      if dst <> 0 then u.ctx.F.regs.(dst) <- V.to_int v;
      resume t u Probe.Resumed
  in
  match t.probe with
  | None -> ()
  | Some p -> p.Probe.reply ~tcu:u.tid ~kind:(reply_kind pk) ~addr:pk.addr pk.lc resumed

(* Claim a free unit of the shared [pool] (from index [i] on) for [lat]
   cycles: [lat], or -1 when every unit is busy. *)
let rec acquire_fu t pool lat i =
  if i >= Array.length pool then -1
  else begin
    let now = Desim.Scheduler.now t.sched in
    if pool.(i) <= now then begin
      pool.(i) <- now + (lat * Desim.Clock.period t.clk_cluster);
      lat
    end
    else acquire_fu t pool lat (i + 1)
  end

let fu_wait t (u : tcu) n =
  set_state t u Tfuwait;
  u.fu_left <- n

(* issue one TCU instruction; returns unit.  Assumes u.st = Trun. *)
let tcu_issue t (cl : cluster) (u : tcu) =
  let spawn_idx, join_idx = t.spawn_region in
  let pc = u.ctx.F.pc in
  t.at_tcu <- u.tid;
  t.at_pc <- pc;
  if pc <= spawn_idx || pc >= join_idx then
    fail
      "fetched pc %d outside the broadcast spawn region (%d, %d): the block \
       was not broadcast (cf. Fig. 9)"
      pc spawn_idx join_idx;
  let ins = t.img.Isa.Program.instrs.(pc) in
  (* a shared MDU/FPU unit must be free before issue *)
  let fu_lat =
    match ins with
    | I.Mdu (I.Mul, _, _, _) -> acquire_fu t cl.mdu t.cfg.Config.mul_latency 0
    | I.Mdu _ -> acquire_fu t cl.mdu t.cfg.Config.div_latency 0
    | I.Fpu1 (I.Fsqrt, _, _) -> acquire_fu t cl.fpu t.cfg.Config.sqrt_latency 0
    | I.Fpu (I.Fdiv, _, _, _) -> acquire_fu t cl.fpu t.cfg.Config.div_latency 0
    | I.Fpu _ | I.Fpu1 _ | I.Fcmp _ | I.Cvt_i2f _ | I.Cvt_f2i _ | I.Fli _ ->
      acquire_fu t cl.fpu t.cfg.Config.fpu_latency 0
    | _ -> 0
  in
  if fu_lat < 0 then begin
    (* shared unit busy: stall, retry next cycle *)
    t.stats.Stats.tcu_fuwait_cycles <- t.stats.Stats.tcu_fuwait_cycles + 1;
    stall t u Probe.Fu_busy ~ticks:1
  end
  else begin
    let res = F.issue t.img u.ctx ~read_str:t.read_str in
    Stats.count_instr t.stats ~master:false t.slots.(pc);
    t.cluster_instrs.(cl.cid) <- t.cluster_instrs.(cl.cid) + 1;
    t.stats.Stats.tcu_busy_cycles <- t.stats.Stats.tcu_busy_cycles + 1;
    (match t.probe_issue with
    | None -> ()
    | Some p ->
      let addr =
        match res with
        | F.Load { addr; _ } | F.Store { addr; _ } | F.Psm { addr; _ }
        | F.Prefetch { addr } ->
          addr
        | _ -> -1
      in
      p.Probe.issue ~tcu:u.tid ~pc ins ~addr);
    match res with
    | F.Done -> if fu_lat > 1 then fu_wait t u (fu_lat - 1)
    | F.Load { dst; addr; ro } ->
      if ro && Tags.lookup cl.rocache addr then begin
        t.stats.Stats.rocache_hits <- t.stats.Stats.rocache_hits + 1;
        access t ~tcu:u.tid ~pc ~addr ~write:false;
        F.complete_load u.ctx dst (Mem.read t.memory addr);
        if t.cfg.Config.rocache_hit_latency > 1 then
          fu_wait t u (t.cfg.Config.rocache_hit_latency - 1)
      end
      else begin
        if ro then t.stats.Stats.rocache_misses <- t.stats.Stats.rocache_misses + 1;
        match Prefetch_buffer.lookup u.pbuf addr with
        | Prefetch_buffer.Hit v ->
          t.stats.Stats.prefetch_hits <- t.stats.Stats.prefetch_hits + 1;
          F.complete_load u.ctx dst v
        | Prefetch_buffer.In_flight ->
          t.stats.Stats.prefetch_late <- t.stats.Stats.prefetch_late + 1;
          Prefetch_buffer.wait_on u.pbuf addr dst;
          park t u Tmemwait Probe.Mem ~pc
        | Prefetch_buffer.Miss ->
          t.stats.Stats.prefetch_misses <- t.stats.Stats.prefetch_misses + 1;
          send t cl (mk_pkg t u ~pc addr (Rload { dst; ro }));
          park t u Tmemwait Probe.Mem ~pc
      end
    | F.Store { addr; value; nb } ->
      (* rule 1 (same source, same destination order): the TCU's own store
         must not be shadowed by a stale prefetched value *)
      Prefetch_buffer.invalidate u.pbuf addr;
      send t cl (mk_pkg t u ~pc addr (Rstore { value; nb }));
      if nb then begin
        t.stats.Stats.nb_stores <- t.stats.Stats.nb_stores + 1;
        u.pending <- u.pending + 1;
        t.pending_total <- t.pending_total + 1
      end
      else park t u Tmemwait Probe.Mem ~pc
    | F.Psm { dst; addr; inc } ->
      send t cl (mk_pkg t u ~pc addr (Rpsm { inc; dst }));
      park t u Tmemwait Probe.Mem ~pc
    | F.Prefetch { addr } ->
      t.stats.Stats.prefetch_issued <- t.stats.Stats.prefetch_issued + 1;
      if Prefetch_buffer.start u.pbuf addr then
        send t cl (mk_pkg t u ~pc addr Rpref)
    | F.Ps { dst; g; inc } ->
      if inc <> 0 && inc <> 1 then
        fail "ps increment must be 0 or 1 (got %d)" inc;
      t.stats.Stats.ps_ops <- t.stats.Stats.ps_ops + 1;
      set_state t u Tpswait;
      let delay = t.cfg.Config.ps_latency * Desim.Clock.period t.clk_cluster in
      Desim.Scheduler.schedule t.sched ~delay (fun () ->
          let old = t.globals.(g) in
          t.globals.(g) <- old + inc;
          sync t ~tcu:u.tid;
          if dst <> 0 then u.ctx.F.regs.(dst) <- old;
          if u.st = Tpswait then set_state t u Trun)
    | F.Chkid { id } ->
      if id <= t.spawn_bound then begin
        t.stats.Stats.virtual_threads <- t.stats.Stats.virtual_threads + 1
      end
      else begin
        set_state t u Tdone;
        t.done_count <- t.done_count + 1;
        stall t u Probe.Done ~ticks:0;
        maybe_join t
      end
    | F.Fence ->
      t.stats.Stats.fences <- t.stats.Stats.fences + 1;
      if u.pending > 0 then park t u Tfence Probe.Fence ~pc
      else release t ~tcu:u.tid (* nothing pending: completes at once *)
    | F.Output s -> Buffer.add_string t.out_buf s
    | F.Spawn _ -> fail "a TCU executed spawn (nested spawns are serialized)"
    | F.Join -> fail "a TCU reached the join instruction"
    | F.Halt -> fail "a TCU executed halt"
    | F.Mfg _ | F.Mtg _ -> fail "a TCU executed serial-only mfg/mtg"
  end

(* Only active TCUs are ticked; parked ones are charged by [cluster_tick]
   and the rest have nothing to do.  A parked TCU never sees a tick: a
   fence parks only with stores pending, and the ack of the last one
   releases it (deliver_reply). *)
let tcu_tick t (cl : cluster) (u : tcu) =
  match u.st with
  | Trun -> tcu_issue t cl u
  | Tfuwait ->
    t.stats.Stats.tcu_busy_cycles <- t.stats.Stats.tcu_busy_cycles + 1;
    stall t u Probe.Latency ~ticks:1;
    if u.fu_left <= 1 then set_state t u Trun else u.fu_left <- u.fu_left - 1
  | Tpswait ->
    t.stats.Stats.tcu_pswait_cycles <- t.stats.Stats.tcu_pswait_cycles + 1;
    stall t u Probe.Ps ~ticks:1
  | Tidle | Tdone | Tmemwait | Tfence -> ()

(* One cluster tick in three phases.  Phase 2 steps the active set in
   rotating priority order: the slots from [cl.rr] up, then those below
   it, with [cl.rr] advancing every tick — the order of a full sweep of
   [ctcus] from [cl.rr] with the inactive slots skipped.  Only the ticked
   TCU changes state in phase 2 (a join leaves every TCU done), so the
   order is fixed before the first visit. *)
let cluster_tick t (cl : cluster) =
  if t.spawn_active || (not (Queue.is_empty cl.returns)) || not (Queue.is_empty cl.outbox)
  then begin
    (* phase 1: accept returning packages *)
    for _ = 1 to t.cfg.Config.cluster_return_width do
      if not (Queue.is_empty cl.returns) then begin
        t.queued <- t.queued - 1;
        deliver_reply t cl (Queue.take cl.returns)
      end
    done;
    (* phase 2: charge the parked TCUs, step the active ones *)
    if t.spawn_active then begin
      t.stats.Stats.tcu_memwait_cycles <- t.stats.Stats.tcu_memwait_cycles + cl.parked;
      let na = cl.nact in
      let first = ref 0 in
      while !first < na && cl.act.(!first) < cl.rr do
        incr first
      done;
      for i = 0 to na - 1 do
        let j = !first + i in
        cl.visit.(i) <- cl.act.(if j >= na then j - na else j)
      done;
      for i = 0 to na - 1 do
        tcu_tick t cl cl.ctcus.(cl.visit.(i))
      done;
      cl.rr <- (cl.rr + 1) mod Array.length cl.ctcus
    end;
    (* phase 3: inject into the ICN *)
    for _ = 1 to t.cfg.Config.cluster_inject_width do
      if not (Queue.is_empty cl.outbox) then begin
        t.queued <- t.queued - 1;
        icn_send t (Queue.take cl.outbox)
      end
    done
  end

(* ------------------------------------------------------------------ *)
(* Master TCU *)

let master_wait t n =
  t.master_st <- Mstall;
  t.mstall_left <- n

let master_tick t =
  match t.master_st with
  | Mhalted | Mmemwait | Mspawnwait -> ()
  | Mstall ->
    master_stall t ~pc:t.master.F.pc Probe.Latency ~ticks:1;
    if t.mstall_left <= 1 then t.master_st <- Mrun
    else t.mstall_left <- t.mstall_left - 1
  | Mrun -> (
    let pc = t.master.F.pc in
    t.at_tcu <- -1;
    t.at_pc <- pc;
    let ins = t.img.Isa.Program.instrs.(pc) in
    (* master handles mfg/mtg directly *)
    let res = F.issue t.img t.master ~read_str:t.read_str in
    Stats.count_instr t.stats ~master:true t.slots.(pc);
    (match t.probe_issue with
    | None -> ()
    | Some p ->
      let addr = match res with F.Load { addr; _ } | F.Store { addr; _ } -> addr | _ -> -1 in
      p.Probe.issue ~tcu:(-1) ~pc ins ~addr);
    match res with
    | F.Done ->
      (* multi-cycle master ALU ops (its FPU divides at fpu_latency) *)
      let lat =
        match ins with
        | I.Mdu (I.Mul, _, _, _) -> t.cfg.Config.mul_latency
        | I.Mdu _ -> t.cfg.Config.div_latency
        | I.Fpu1 (I.Fsqrt, _, _) -> t.cfg.Config.sqrt_latency
        | I.Fpu _ | I.Fpu1 _ | I.Fcmp _ | I.Cvt_i2f _ | I.Cvt_f2i _ | I.Fli _ ->
          t.cfg.Config.fpu_latency
        | _ -> 1
      in
      if lat > 1 then master_wait t (lat - 1)
    | F.Load { dst; addr; ro = _ } ->
      if Tags.lookup t.master_cache addr then begin
        t.stats.Stats.master_cache_hits <- t.stats.Stats.master_cache_hits + 1;
        F.complete_load t.master dst (Mem.read t.memory addr);
        if t.cfg.Config.master_cache_hit_latency > 1 then
          master_wait t (t.cfg.Config.master_cache_hit_latency - 1)
      end
      else begin
        t.stats.Stats.master_cache_misses <- t.stats.Stats.master_cache_misses + 1;
        t.master_st <- Mmemwait;
        let delay =
          (t.cfg.Config.dram_latency * Desim.Clock.period t.clk_dram)
          + t.cfg.Config.master_cache_hit_latency
        in
        t.stats.Stats.dram_reads <- t.stats.Stats.dram_reads + 1;
        let t_miss = Desim.Scheduler.now t.sched in
        Desim.Scheduler.schedule t.sched ~delay (fun () ->
            t.at_tcu <- -1;
            t.at_pc <- pc;
            Tags.install t.master_cache addr;
            F.complete_load t.master dst (Mem.read t.memory addr);
            (* the master was parked the whole window: report it in
               cluster-grid ticks *)
            master_stall t ~pc:t.master.F.pc Probe.Mem
              ~ticks:
                ((Desim.Scheduler.now t.sched - t_miss)
                / max 1 (Desim.Clock.period t.clk_cluster));
            if t.master_st = Mmemwait then t.master_st <- Mrun;
            Desim.Clock.wake t.clk_cluster)
      end
    | F.Store { addr; value; nb = _ } ->
      (* write-through master cache; write buffer absorbs the latency *)
      Mem.write t.memory addr value;
      Tags.install t.master_cache addr
    | F.Mfg { dst; g } -> if dst <> 0 then t.master.F.regs.(dst) <- t.globals.(g)
    | F.Mtg { g; src } -> t.globals.(g) <- src
    | F.Spawn { lo; hi } ->
      t.stats.Stats.spawns <- t.stats.Stats.spawns + 1;
      let spawn_idx = pc in
      let join_idx =
        match Hashtbl.find_opt t.join_of spawn_idx with
        | Some j -> j
        | None -> fail "spawn at %d has no join" spawn_idx
      in
      t.master_st <- Mspawnwait;
      master_stall t ~pc Probe.Spawn ~ticks:t.cfg.Config.spawn_overhead;
      let delay = t.cfg.Config.spawn_overhead * Desim.Clock.period t.clk_cluster in
      Desim.Scheduler.schedule t.sched ~delay (fun () ->
          t.spawn_region <- (spawn_idx, join_idx);
          t.spawn_bound <- hi;
          t.globals.(Isa.Reg.g_spawn) <- lo;
          t.done_count <- 0;
          t.spawn_active <- true;
          (match t.probe with Some p -> p.Probe.spawn ~lo ~hi | None -> ());
          Array.iter
            (fun cl ->
              Array.iter
                (fun u ->
                  F.copy_regs ~src:t.master ~dst:u.ctx;
                  u.ctx.F.pc <- spawn_idx + 1;
                  set_state t u Trun;
                  Prefetch_buffer.clear u.pbuf)
                cl.ctcus)
            t.clusters;
          Desim.Clock.wake t.clk_cluster)
    | F.Join -> fail "master reached join without spawn (postpass should reject)"
    | F.Output s -> Buffer.add_string t.out_buf s
    | F.Halt ->
      t.master_st <- Mhalted;
      t.halted <- true;
      Desim.Scheduler.stop t.sched ()
    | F.Fence -> () (* master stores are write-through: nothing pending *)
    | F.Ps _ -> fail "master executed ps (parallel-only)"
    | F.Psm _ -> fail "master executed psm (parallel-only)"
    | F.Chkid _ -> fail "master executed chkid"
    | F.Prefetch _ -> () (* master prefetch: no-op *))

(* ------------------------------------------------------------------ *)

type domain = Clusters | Icn | Caches | Dram

let clock_of t = function
  | Clusters -> t.clk_cluster
  | Icn -> t.clk_icn
  | Caches -> t.clk_cache
  | Dram -> t.clk_dram

let set_period t d p = Desim.Clock.set_period (clock_of t d) p
let period t d = Desim.Clock.period (clock_of t d)

(* ------------------------------------------------------------------ *)
(* Clock gating (paper §III-C: the event engine skips inactive parts).
   Each domain sleeps when it provably has no work this tick and is woken
   by the events that create work.  Clock.wake resumes on the period grid,
   so gating never changes simulated times, stats or traces — only the
   host-side event count. *)

let set_gating t on =
  if t.started then fail "set_gating must be called before the first run";
  t.gating <- on

let gating_enabled t = t.gating
let domain_sleeping t d = Desim.Clock.sleeping (clock_of t d)

let cluster_domain_idle t =
  (not t.spawn_active)
  && (match t.master_st with
     | Mmemwait | Mspawnwait | Mhalted -> true  (* parked on a callback *)
     | Mrun | Mstall -> false (* tick-driven *))
  && t.queued = 0

let cache_domain_idle t =
  Queue.is_empty t.dram_q
  && Array.for_all
       (fun m -> Queue.is_empty m.inq && Hashtbl.length m.mshr = 0)
       t.modules

let dram_domain_idle t = Queue.is_empty t.dram_q && t.dram_fills = 0

(* Per-domain gating effectiveness: fired ticks, the estimate of ticks
   gated away, and the current period, as sim.clock.* metrics. *)
let export_clocks t reg =
  List.iter
    (fun d ->
      let c = clock_of t d in
      let labels = [ ("domain", Desim.Clock.name c) ] in
      Obs.Metrics.inc
        ~by:(Desim.Clock.cycles c)
        (Obs.Metrics.counter reg ~labels "sim.clock.ticks");
      Obs.Metrics.inc
        ~by:(Desim.Clock.skipped_ticks c)
        (Obs.Metrics.counter reg ~labels "sim.clock.skipped_ticks");
      Obs.Metrics.set
        (Obs.Metrics.gauge reg ~labels "sim.clock.period")
        (float_of_int (Desim.Clock.period c)))
    [ Clusters; Icn; Caches; Dram ]

let add_activity_plugin t ~interval hook =
  (* plug-ins sample on cluster ticks: keep that clock free-running so
     sampling times match an unplugged run of the same schedule *)
  t.has_plugin <- true;
  Desim.Clock.wake t.clk_cluster;
  Desim.Clock.on_tick ~phase:2 t.clk_cluster (fun cycle ->
      if cycle > 0 && cycle mod interval = 0 then hook t cycle)

(* ------------------------------------------------------------------ *)
(* Passive observers.  Every attached probe is folded into one record,
   rebuilt on attach and detach; a detach from inside a callback is safe
   because the call in progress holds the old record. *)

let attach t p =
  let rebuild () =
    t.probe <-
      (match t.probes with
      | [] -> None
      | q :: qs -> Some (List.fold_left Probe.both q qs));
    let filled hook =
      match t.probe with Some p when hook p != hook Probe.none -> t.probe | _ -> None
    in
    t.probe_issue <- filled (fun p -> p.Probe.issue);
    t.probe_stall <- filled (fun p -> p.Probe.stall);
    t.probe_tick <- filled (fun p -> p.Probe.cluster_tick)
  in
  t.probes <- t.probes @ [ p ];
  rebuild ();
  fun () ->
    t.probes <- List.filter (fun q -> q != p) t.probes;
    rebuild ()

(* ------------------------------------------------------------------ *)

let start t =
  if not t.started then begin
    t.started <- true;
    (* the probe's cluster-tick hook rides the master's phase-0 handler
       (fired ticks only: a gated-off domain reports none) rather than a
       handler of its own, which would cost a dispatch on every tick *)
    Desim.Clock.on_tick ~phase:0 t.clk_cluster (fun cycle ->
        (match t.probe_tick with None -> () | Some p -> p.Probe.cluster_tick cycle);
        master_tick t);
    (* with no spawn active and no package queued, no cluster has work *)
    Desim.Clock.on_tick ~phase:1 t.clk_cluster (fun _ ->
        if t.spawn_active || t.queued > 0 then
          for c = 0 to Array.length t.clusters - 1 do
            cluster_tick t t.clusters.(c)
          done);
    Desim.Clock.on_tick ~phase:0 t.clk_cache (fun _ ->
        for m = 0 to Array.length t.modules - 1 do
          module_tick t t.modules.(m)
        done);
    Desim.Clock.on_tick ~phase:0 t.clk_dram (fun _ -> dram_tick t);
    (* gating checks run after every work phase of the tick (activity
       plug-ins register at phase 2; cluster gating is disabled outright
       while one is attached, see add_activity_plugin) *)
    Desim.Clock.on_tick ~phase:100 t.clk_cluster (fun _ ->
        if t.gating && (not t.has_plugin) && cluster_domain_idle t then
          Desim.Clock.sleep t.clk_cluster);
    Desim.Clock.on_tick ~phase:100 t.clk_cache (fun _ ->
        if t.gating && cache_domain_idle t then Desim.Clock.sleep t.clk_cache);
    Desim.Clock.on_tick ~phase:100 t.clk_dram (fun _ ->
        if t.gating && dram_domain_idle t then Desim.Clock.sleep t.clk_dram);
    Desim.Clock.start t.clk_cluster;
    Desim.Clock.start t.clk_icn;
    Desim.Clock.start t.clk_cache;
    Desim.Clock.start t.clk_dram;
    (* the ICN clock has no tick handlers — transfers are their own
       scheduled events — so under gating it sleeps for the whole run *)
    if t.gating then Desim.Clock.sleep t.clk_icn
  end

let run ?max_cycles t =
  start t;
  let budget =
    match max_cycles with Some m -> m | None -> t.cfg.Config.max_cycles
  in
  Desim.Scheduler.stop t.sched ~time:(Desim.Scheduler.now t.sched + budget) ();
  (match Desim.Scheduler.run t.sched with
  | (_ : Desim.Scheduler.outcome) -> ()
  | exception Sim_error msg -> raise (F.Fault { tcu = t.at_tcu; pc = t.at_pc; msg })
  | exception e -> raise (F.fault ~tcu:t.at_tcu ~pc:t.at_pc e));
  t.stats.Stats.cycles <- Desim.Scheduler.now t.sched;
  (match t.probe with Some p when t.halted -> p.Probe.run_done () | _ -> ());
  { output = Buffer.contents t.out_buf; cycles = Desim.Scheduler.now t.sched;
    halted = t.halted }

(* ------------------------------------------------------------------ *)
(* Checkpoints *)

type snapshot = {
  s_mem : Mem.t;
  s_regs : int array;
  s_fregs : float array;
  s_pc : int;
  s_globals : int array;
  s_output : string;
  (* telemetry state: restoring must keep post-restore histograms and
     counters consistent with the pre-checkpoint run *)
  s_stats : Stats.t;
  s_icn_backlog : int array array;
      (** icn_next_free relative to the checkpoint time (>= 0): residual
          merge contention survives the save/restore boundary *)
  s_cluster_instrs : int array;
}

let make_snapshot ~mem ~regs ~fregs ~pc ~globals ~output =
  { s_mem = mem; s_regs = regs; s_fregs = fregs; s_pc = pc; s_globals = globals;
    s_output = output; s_stats = Stats.create ();
    s_icn_backlog = [||]; s_cluster_instrs = [||] }

let quiescent t =
  (not t.spawn_active)
  && (match t.master_st with Mrun | Mhalted -> true | _ -> false)
  && t.pending_total = 0


(* Run in small increments until the machine reaches a quiescent point (a
   serial instruction boundary with nothing in flight) or halts. *)
let run_to_quiescent t =
  (* single-cycle steps: the serial windows between spawns are narrow and
     a coarser stride would overshoot them all the way to the halt *)
  let guard = ref 0 in
  while (not (quiescent t)) && (not t.halted) && !guard < 10_000_000 do
    incr guard;
    ignore (run ~max_cycles:1 t)
  done;
  if not (quiescent t) then fail "machine did not reach a quiescent point"

let checkpoint t =
  if not (quiescent t) then
    fail "checkpoint requires a quiescent machine (serial mode, no in-flight ops)";
  {
    s_mem = Mem.snapshot t.memory;
    s_regs = Array.copy t.master.F.regs;
    s_fregs = Array.copy t.master.F.fregs;
    s_pc = t.master.F.pc;
    s_globals = Array.copy t.globals;
    s_output = Buffer.contents t.out_buf;
    s_stats = Stats.copy t.stats;
    s_icn_backlog = icn_backlog t;
    s_cluster_instrs = Array.copy t.cluster_instrs;
  }

let restore t s =
  if not (quiescent t) then fail "restore requires a quiescent machine";
  Mem.restore t.memory s.s_mem;
  (* snapshots must survive register-file size changes: copy what fits *)
  Array.blit s.s_regs 0 t.master.F.regs 0
    (min (Array.length s.s_regs) (Array.length t.master.F.regs));
  Array.blit s.s_fregs 0 t.master.F.fregs 0
    (min (Array.length s.s_fregs) (Array.length t.master.F.fregs));
  t.master.F.pc <- s.s_pc;
  Array.blit s.s_globals 0 t.globals 0 (Array.length t.globals);
  Buffer.clear t.out_buf;
  Buffer.add_string t.out_buf s.s_output;
  t.master_st <- Mrun;
  t.halted <- false;
  (* a gated machine may have parked the cluster clock (e.g. after the
     halt that preceded this restore); Mrun needs it ticking again.  The
     wake is grid-aligned, so the resume time matches an ungated run. *)
  Desim.Clock.wake ~tick_at_now:true t.clk_cluster;
  Tags.invalidate_all t.master_cache;
  (* telemetry state: counters/histograms continue from the checkpoint;
     residual ICN merge contention is re-anchored at the current time.
     make_snapshot-produced snapshots (functional fast-forward) carry
     empty arrays and leave the fresh machine's state as created. *)
  Stats.blit ~src:s.s_stats ~dst:t.stats;
  (match t.stats.Stats.req_lat with
  | None ->
    t.stats.Stats.req_lat <-
      Some
        (Stats.make_req_latency ~clusters:t.cfg.Config.num_clusters
           ~modules:t.cfg.Config.num_cache_modules)
  | Some _ -> ());
  (let now = Desim.Scheduler.now t.sched in
   Array.iteri
     (fun m sides ->
       Array.iteri
         (fun side rel ->
           if m < Array.length t.icn_next_free
              && side < Array.length t.icn_next_free.(m)
           then t.icn_next_free.(m).(side) <- now + rel)
         sides)
     s.s_icn_backlog);
  Array.blit s.s_cluster_instrs 0 t.cluster_instrs 0
    (min (Array.length s.s_cluster_instrs) (Array.length t.cluster_instrs))

let snapshot_to_file s path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Marshal.to_channel oc s [])

let snapshot_of_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> (Marshal.from_channel ic : snapshot))
