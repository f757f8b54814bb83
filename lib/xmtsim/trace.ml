(** Execution traces (paper §III-E).

    Functional-level traces show the executed instructions; filters
    restrict to specific TCUs and/or instruction classes.  Attach with
    {!attach}; lines go to the given sink (e.g. [Buffer.add_string buf]
    or [print_string]).  The cycle-accurate level ({!attach_packages})
    shows every station a memory package passes.  Either trace detaches
    itself from the machine when it reaches its line limit, so a bounded
    trace costs nothing for the rest of a long run.

    {!spans} renders the run as a Chrome trace-event timeline instead. *)

type filter = {
  tcus : int list option;  (** [None] = all; Master TCU is -1 *)
  classes : Isa.Instr.fu_class list option;
  limit : int;  (** stop recording after this many lines; <=0 = unlimited *)
}

let all = { tcus = None; classes = None; limit = 0 }

(* Attach the probe [mk line] built from a line emitter: [line s] sends
   [s] to [sink] and detaches the probe once [limit] lines went out. *)
let attach_limited machine ~limit sink mk =
  let count = ref 0 in
  let detach = ref (fun () -> ()) in
  let line s =
    incr count;
    sink s;
    if limit > 0 && !count >= limit then !detach ()
  in
  detach := Machine.attach machine (mk line)

let attach ?(filter = all) machine sink =
  attach_limited machine ~limit:filter.limit sink (fun line ->
      {
        Probe.none with
        issue =
          (fun ~tcu ~pc ins ~addr:_ ->
            if
              (match filter.tcus with None -> true | Some l -> List.mem tcu l)
              && (match filter.classes with
                 | None -> true
                 | Some l -> List.mem (Isa.Instr.fu_class_of ins) l)
            then
              let who = if tcu < 0 then "MTCU" else Printf.sprintf "TCU%-4d" tcu in
              line
                (Printf.sprintf "%8d %s pc=%-5d %s\n" (Machine.cycles machine) who pc
                   (Isa.Instr.to_string ins)));
      })

(** Attach the cycle-accurate (package-level) trace: one line per station
    an instruction/data package travels through (§III-E).  [addr] limits
    the trace to packages touching that address. *)
let attach_packages ?addr ?(limit = 0) machine sink =
  attach_limited machine ~limit sink (fun line ->
      {
        Probe.none with
        station =
          (fun ~stage ~kind ~addr:a ~tcu ~pc ~module_ ->
            if match addr with Some x -> a = x || stage = "dram-fill" | None -> true
            then
              line
                (Printf.sprintf "%8d %-13s %-9s addr=0x%-6x tcu=%-4d pc=%-5d module=%d\n"
                   (Machine.cycles machine) stage kind a tcu pc module_));
      })

(* ------------------------------------------------------------------ *)
(* Span trace (Chrome trace-event JSON, §III-B/E as Perfetto tracks).
   Track layout on the sim process: master TCU = tid 0, TCU i = tid i+1,
   then one "memory" track for unattributable package events and one
   "governor" track for runtime-control decisions. *)

type spans = {
  tr : Obs.Tracer.t;
  m : Machine.t;
  mw_since : int array;  (** per TCU: open memory/fence-wait span start, or -1 *)
  run_since : int array;  (** per TCU: open spawn-activation..done span, or -1 *)
  waiting : int array;  (** TCUs whose memory/fence wait opens next cycle *)
  mutable n_waiting : int;
  mutable in_spawn : bool;  (** a spawn span is open and not yet joining *)
}

let tid_of_tcu tcu = tcu + 1
let memory_tid s = Array.length s.mw_since + 1
let governor_tid s = memory_tid s + 1
let tracer s = s.tr

(** A span trace of [m] into [tr]: names the tracks now; feed it by
    attaching {!span_probe} and call {!flush_spans} after the last run. *)
let spans m tr =
  let cfg = Machine.config m in
  let n = cfg.Config.num_clusters * cfg.Config.tcus_per_cluster in
  let s =
    { tr; m; mw_since = Array.make n (-1); run_since = Array.make n (-1);
      waiting = Array.make n 0; n_waiting = 0; in_spawn = false }
  in
  Obs.Tracer.name_process tr ~pid:1 "xmtsim (ts = simulated time units)";
  Obs.Tracer.name_thread tr ~pid:1 ~tid:0 "MTCU";
  for u = 0 to n - 1 do
    Obs.Tracer.name_thread tr ~pid:1 ~tid:(tid_of_tcu u) (Printf.sprintf "TCU %d" u)
  done;
  Obs.Tracer.name_thread tr ~pid:1 ~tid:(memory_tid s) "memory";
  Obs.Tracer.name_thread tr ~pid:1 ~tid:(governor_tid s) "governor";
  s

(* close TCU [tcu]'s span of kind [name] if [since] has one open *)
let close s since ~tcu name =
  if since.(tcu) >= 0 then begin
    Obs.Tracer.complete s.tr ~ts:since.(tcu) ~dur:(Machine.cycles s.m - since.(tcu))
      ~tid:(tid_of_tcu tcu) ~cat:"tcu" name;
    since.(tcu) <- -1
  end

let close_memwait s ~tcu = close s s.mw_since ~tcu "memwait"

(* a wait opens on the cycle after it began; one that ends before the
   TCU's turn in that cycle (reply or release) waited no cycle at all *)
let drop_unwaited s ~tcu =
  if s.mw_since.(tcu) = Machine.cycles s.m then s.mw_since.(tcu) <- -1

(** Spawn/join phases as nested B/E spans on the master track, per-TCU
    memory-wait and thread-run intervals as complete (X) spans, package
    hops as instant events, and one "mem-req" span per completed request
    covering its outbox -> ICN -> module -> reply round trip (per-stage
    durations in the args).  Timestamps are simulated time units. *)
let span_probe s =
  let now () = Machine.cycles s.m in
  {
    Probe.none with
    (* a wait span opens on the first waiting cycle and closes on the
       TCU's next cycle of anything else *)
    issue = (fun ~tcu ~pc:_ _ ~addr:_ -> if tcu >= 0 then close_memwait s ~tcu);
    cluster_tick =
      (fun _ ->
        for i = 0 to s.n_waiting - 1 do
          s.mw_since.(s.waiting.(i)) <- now ()
        done;
        s.n_waiting <- 0);
    stall =
      (fun ~tcu ~pc:_ st ~ticks:_ ->
        if tcu >= 0 then
          match st with
          | Probe.Mem | Fence ->
            s.waiting.(s.n_waiting) <- tcu;
            s.n_waiting <- s.n_waiting + 1
          | Done ->
            close_memwait s ~tcu;
            close s s.run_since ~tcu "tcu-run"
          | Fu_busy | Latency | Ps | Spawn | Join -> close_memwait s ~tcu
        else if st = Probe.Join then s.in_spawn <- false);
    station =
      (fun ~stage ~kind ~addr ~tcu ~pc:_ ~module_ ->
        let tid = if tcu >= 0 then tid_of_tcu tcu else memory_tid s in
        Obs.Tracer.instant s.tr ~ts:(now ()) ~tid ~cat:"pkg"
          ~args:
            [ ("kind", Obs.Tracer.A_str kind); ("addr", Obs.Tracer.A_int addr);
              ("module", Obs.Tracer.A_int module_) ]
          stage);
    reply =
      (fun ~tcu ~kind ~addr lc resume ->
        let now = now () in
        if resume <> Probe.Not_waiting then drop_unwaited s ~tcu;
        Obs.Tracer.complete s.tr ~ts:lc.l_born ~dur:(now - lc.l_born)
          ~tid:(tid_of_tcu tcu) ~cat:"mem"
          ~args:
            [ ("kind", Obs.Tracer.A_str kind); ("addr", Obs.Tracer.A_int addr);
              ("module", Obs.Tracer.A_int lc.l_mod);
              ("hit", Obs.Tracer.A_int (if lc.l_hit then 1 else 0));
              ("icn_wait", Obs.Tracer.A_int lc.l_icn_wait);
              ("service", Obs.Tracer.A_int (lc.l_svc - lc.l_arrive));
              ("reply", Obs.Tracer.A_int (now - lc.l_svc)) ]
          "mem-req");
    spawn =
      (fun ~lo ~hi ->
        let now = now () in
        s.in_spawn <- true;
        Obs.Tracer.begin_span s.tr ~ts:now ~tid:0 ~cat:"spawn"
          ~args:
            [ ("lo", Obs.Tracer.A_int lo); ("hi", Obs.Tracer.A_int hi);
              ("threads", Obs.Tracer.A_int (hi - lo + 1)) ]
          "spawn";
        Array.fill s.run_since 0 (Array.length s.run_since) now);
    release = (fun ~tcu -> drop_unwaited s ~tcu);
    join = (fun () -> Obs.Tracer.end_span s.tr ~ts:(now ()) ~tid:0 ());
  }

(** Close the spans still open (waiting TCUs, an active spawn) at the
    current simulated time.  Call once, after the last run, before
    serializing the trace. *)
let flush_spans s =
  for tcu = 0 to Array.length s.mw_since - 1 do
    close_memwait s ~tcu;
    close s s.run_since ~tcu "tcu-run"
  done;
  if s.in_spawn then Obs.Tracer.end_span s.tr ~ts:(Machine.cycles s.m) ~tid:0 ()
