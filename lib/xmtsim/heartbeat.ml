(** Live telemetry heartbeats (xmt.events.v1) from a running machine.

    {!probe} emits a [run.start] record when built, a [sim.heartbeat]
    every [heartbeat_cycles] cluster cycles (default 10000), a
    [window.close] rollup every 16 heartbeats and one [run.done] summary
    when the machine halts.  Each heartbeat carries the grid cycle, host
    events/sec over its window, the number of gated-off clock domains and
    the window's memory-wait fraction, all sampled from counters the run
    keeps anyway.  The producer rides the cluster clock's fired ticks, so
    a gated-off machine emits no heartbeats while it sleeps, and a
    streamed run is bit-identical to an unstreamed one, including the
    host-side event count. *)

let domains = Machine.[ Clusters; Icn; Caches; Dram ]

let probe ?(heartbeat_cycles = 10_000) m s =
  if heartbeat_cycles <= 0 then
    raise (Machine.Sim_error "Heartbeat.probe: heartbeat_cycles must be positive");
  let cfg = Machine.config m in
  Obs.Stream.emit s ~typ:"run.start" ~t:(Machine.cycles m)
    [
      ("config", Obs.Json.Str cfg.Config.name);
      ("clusters", Obs.Json.Int cfg.Config.num_clusters);
      ("tcus", Obs.Json.Int (cfg.Config.num_clusters * cfg.Config.tcus_per_cluster));
      ("instructions", Obs.Json.Int (Array.length (Machine.image m).Isa.Program.instrs));
      ("heartbeat_cycles", Obs.Json.Int heartbeat_cycles);
    ];
  let rollup = Obs.Stream.rollup ~window:16 s "sim.heartbeat" in
  (* previous sample of each windowed quantity, so every heartbeat
     reports rates over its own window, not run-to-date averages *)
  let next = ref heartbeat_cycles in
  let last_events = ref 0 and last_us = ref (Obs.Tracer.host_now_us ()) in
  let last_busy = ref 0 and last_memwait = ref 0 in
  let finished = ref false in
  let heartbeat cycle =
    let now = Machine.cycles m in
    let events = Machine.events_processed m in
    let us = Obs.Tracer.host_now_us () in
    let d_secs = float_of_int (us - !last_us) /. 1e6 in
    let rate =
      if d_secs > 0.0 then float_of_int (events - !last_events) /. d_secs else 0.0
    in
    let gated = List.length (List.filter (Machine.domain_sleeping m) domains) in
    let st = Machine.stats m in
    let busy = st.Stats.tcu_busy_cycles and mw = st.Stats.tcu_memwait_cycles in
    let d_busy = busy - !last_busy and d_mw = mw - !last_memwait in
    let memwait_frac =
      if d_busy + d_mw = 0 then 0.0
      else float_of_int d_mw /. float_of_int (d_busy + d_mw)
    in
    last_events := events;
    last_us := us;
    last_busy := busy;
    last_memwait := mw;
    Obs.Stream.emit s ~typ:"sim.heartbeat" ~t:now
      [
        ("cycle", Obs.Json.Int cycle);
        ("events", Obs.Json.Int events);
        ("events_per_sec", Obs.Json.Float rate);
        ("gated_domains", Obs.Json.Int gated);
        ("memwait_frac", Obs.Json.Float memwait_frac);
      ];
    Obs.Stream.observe rollup ~t:now
      [
        ("events_per_sec", rate);
        ("gated_domains", float_of_int gated);
        ("memwait_frac", memwait_frac);
      ]
  in
  {
    Probe.none with
    cluster_tick =
      (fun cycle ->
        (* [>=] rather than [mod]: a boundary slept through (clock
           gating) still yields a heartbeat on the next fired tick *)
        if cycle >= !next then begin
          next := cycle + heartbeat_cycles;
          heartbeat cycle
        end);
    run_done =
      (fun () ->
        (* the per-run summary, and the stream's drop count: the final
           word on the overflow policy *)
        if not !finished then begin
          finished := true;
          Obs.Stream.close_rollup rollup;
          let now = Machine.cycles m in
          Obs.Stream.emit s ~typ:"run.done" ~t:now
            [
              ("cycles", Obs.Json.Int now);
              ("instructions", Obs.Json.Int (Stats.total_instrs (Machine.stats m)));
              ("events", Obs.Json.Int (Machine.events_processed m));
              ("output_bytes", Obs.Json.Int (String.length (Machine.output m)));
              ("halted", Obs.Json.Bool true);
              ("dropped", Obs.Json.Int (Obs.Stream.dropped s));
            ]
        end);
  }
