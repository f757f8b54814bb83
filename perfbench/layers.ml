(** Timed calls into each layer's public functions.  Every call adds its
    host time, allocation and exact work counts to a per-pass
    accumulator, and opens a span when tracing is on.  Times and minor
    words are read inside the span, so tracing does not change them. *)

module M = Xmtsim.Machine
module S = Xmtsim.Stats

(** Per-pass sums, keyed by metric name. *)
type acc = (string, float) Hashtbl.t

let add (acc : acc) k v =
  Hashtbl.replace acc k (v +. Option.value (Hashtbl.find_opt acc k) ~default:0.0)

let get (acc : acc) k = Option.value (Hashtbl.find_opt acc k) ~default:0.0

(** [f ()] with its monotonic seconds and minor-heap words.
    [Gc.minor_words] is exact at any point; [Gc.quick_stat]'s copy only
    advances at a minor collection. *)
let measure f =
  let w0 = Gc.minor_words () in
  let t0 = Obs.Clock.now () in
  let r = f () in
  let t1 = Obs.Clock.now () in
  let w1 = Gc.minor_words () in
  (r, t1 -. t0, w1 -. w0)

(* collections and promotions over [f ()], from an empty minor heap so
   that the counts repeat exactly *)
let with_gc acc f =
  Gc.minor ();
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  add acc "gc.minor_collections"
    (float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections));
  add acc "gc.major_collections"
    (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
  add acc "gc.promoted_words" (g1.Gc.promoted_words -. g0.Gc.promoted_words);
  r

(** What one simulation left behind, compared across passes and modes. *)
type outcome = {
  output : string;
  instrs : int;
  cycles : int;  (** simulated (cycle mode) or predicted cycles; 0 functional *)
  events : int;  (** desim events (cycle mode) *)
  host_s : float;  (** host seconds in the layer calls *)
  words : float;  (** minor-heap words allocated in the layer calls *)
  fingerprint : int list;  (** exact counts that must repeat on every pass *)
}

let budget_exhausted what = failwith (what ^ " budget exhausted before halt")

let domains = [ "clusters"; "icn"; "caches"; "dram" ]

(* the Stats activity counters, under their per-layer metric names *)
let component_counts (st : S.t) =
  [
    ("tcu.busy_cycles", st.S.tcu_busy_cycles);
    ("tcu.memwait_cycles", st.S.tcu_memwait_cycles);
    ("tcu.fuwait_cycles", st.S.tcu_fuwait_cycles);
    ("tcu.pswait_cycles", st.S.tcu_pswait_cycles);
    ("icn.packets", st.S.icn_packets);
    ("icn.occupancy", st.S.icn_occupancy);
    ("cache.hits", st.S.cache_hits);
    ("cache.misses", st.S.cache_misses);
    ("rocache.hits", st.S.rocache_hits);
    ("rocache.misses", st.S.rocache_misses);
    ("master_cache.hits", st.S.master_cache_hits);
    ("master_cache.misses", st.S.master_cache_misses);
    ("dram.reads", st.S.dram_reads);
    ("prefetch.issued", st.S.prefetch_issued);
    ("prefetch.hits", st.S.prefetch_hits);
    ("prefetch.late", st.S.prefetch_late);
    ("sync.ps_ops", st.S.ps_ops);
    ("sync.psm_ops", st.S.psm_ops);
  ]

(** Cycle mode: [Machine.create] then [Machine.run].  Returns the
    outcome and the machine (for reading memory back). *)
let cycle acc spans ~op ~config ?max_cycles (c : Core.Toolchain.compiled) =
  let m, create_s, create_w =
    Spans.within spans ~layer:"machine" ~name:"machine.create" ~op (fun () ->
        measure (fun () -> M.create ~config c.Core.Toolchain.image))
  in
  let r, run_s, run_w =
    Spans.within spans ~layer:"machine" ~name:"machine.run" ~op (fun () ->
        with_gc acc (fun () -> measure (fun () -> M.run ?max_cycles m)))
  in
  if not r.M.halted then budget_exhausted "cycle";
  let st = M.stats m in
  let instrs = S.total_instrs st and cycles = r.M.cycles in
  let events = M.events_processed m in
  add acc "machine.create_ms" (create_s *. 1e3);
  add acc "machine.run_s" run_s;
  add acc "machine.words" (create_w +. run_w);
  add acc "machine.instrs" (float_of_int instrs);
  add acc "machine.cycles" (float_of_int cycles);
  add acc "desim.events" (float_of_int events);
  let reg = Obs.Metrics.create () in
  M.export_clocks m reg;
  let clock name d =
    Option.value ~default:0
      (Obs.Metrics.counter_value reg ~labels:[ ("domain", d) ] name)
  in
  let ticks =
    List.concat_map
      (fun d ->
        [
          ("desim.ticks." ^ d, clock "sim.clock.ticks" d);
          ("desim.skipped_ticks." ^ d, clock "sim.clock.skipped_ticks" d);
        ])
      domains
  in
  let counts = component_counts st @ ticks in
  List.iter (fun (k, v) -> add acc k (float_of_int v)) counts;
  ( {
      output = r.M.output;
      instrs;
      cycles;
      events;
      host_s = create_s +. run_s;
      words = create_w +. run_w;
      fingerprint = cycles :: instrs :: events :: List.map snd counts;
    },
    m )

(** Functional mode: [Functional_mode.run]. *)
let functional acc spans ~op ?max_instructions (c : Core.Toolchain.compiled) =
  let r, s, words =
    Spans.within spans ~layer:"functional" ~name:"functional.run" ~op (fun () ->
        with_gc acc (fun () ->
            measure (fun () ->
                Xmtsim.Functional_mode.run ?max_instructions c.Core.Toolchain.image)))
  in
  if not r.Xmtsim.Functional_mode.halted then budget_exhausted "instruction";
  let instrs = r.Xmtsim.Functional_mode.instructions in
  add acc "functional.run_s" s;
  add acc "functional.words" words;
  add acc "functional.instrs" (float_of_int instrs);
  {
    output = r.Xmtsim.Functional_mode.output;
    instrs;
    cycles = 0;
    events = 0;
    host_s = s;
    words;
    fingerprint = [ instrs ];
  }

(** Predict mode: a [Reuseprofile] harvest (one profiled functional
    pass), then [Predict.Model.predict] on its snapshot. *)
let predict acc spans ~op ~config ?max_instructions (c : Core.Toolchain.compiled) =
  let (rp, r), harvest_s, harvest_w =
    Spans.within spans ~layer:"predict" ~name:"predict.harvest" ~op (fun () ->
        measure (fun () ->
            let rp = Xmtsim.Reuseprofile.create () in
            ( rp,
              Xmtsim.Functional_mode.run ?max_instructions ~profile:rp
                c.Core.Toolchain.image )))
  in
  if not r.Xmtsim.Functional_mode.halted then budget_exhausted "instruction";
  let cal = Predict.Calibrate.default in
  let pred, model_s, model_w =
    Spans.within spans ~layer:"predict" ~name:"predict.model" ~op (fun () ->
        measure (fun () ->
            Predict.Model.predict ~coeffs:cal.Predict.Calibrate.coeffs
              ~residual_std_pct:cal.Predict.Calibrate.residual_std_pct ~config
              (Xmtsim.Reuseprofile.snapshot rp)))
  in
  add acc "predict.harvest_ms" (harvest_s *. 1e3);
  add acc "predict.model_ms" (model_s *. 1e3);
  let instrs = r.Xmtsim.Functional_mode.instructions in
  let cycles = pred.Predict.Model.predicted_cycles in
  {
    output = r.Xmtsim.Functional_mode.output;
    instrs;
    cycles;
    events = 0;
    host_s = harvest_s +. model_s;
    words = harvest_w +. model_w;
    fingerprint = [ instrs; cycles ];
  }

let compiler_passes =
  [ "frontend"; "cluster"; "outline"; "lower"; "opt"; "memfence"; "prefetch";
    "regalloc"; "codegen"; "postpass" ]

(** One compile through an [Artifacts] cache ([Artifacts.get]); returns
    the artifact and the compile's wall seconds. *)
let compile acc spans ~op art ~options ~memmap source =
  let c, s, _ =
    Spans.within spans ~layer:"compiler" ~name:"compile" ~op (fun () ->
        measure (fun () -> Core.Toolchain.Artifacts.get art ~options ~memmap source))
  in
  let cc = c.Core.Toolchain.cc in
  let timings = cc.Compiler.Driver.timings in
  let size_after pass =
    List.fold_left
      (fun a pt ->
        if pt.Compiler.Driver.pt_pass = pass then pt.Compiler.Driver.pt_size_after else a)
      0 timings
  in
  let pass_ms =
    List.fold_left
      (fun sum pt ->
        add acc ("compiler." ^ pt.Compiler.Driver.pt_pass ^ ".ms") pt.Compiler.Driver.pt_ms;
        sum +. pt.Compiler.Driver.pt_ms)
      0.0 timings
  in
  add acc "compiler.link_ms" ((s *. 1e3) -. pass_ms);
  add acc "compiler.ir_instrs" (float_of_int (size_after "regalloc"));
  add acc "compiler.emitted_instrs" (float_of_int (size_after "postpass"));
  add acc "compiler.relocated_blocks" (float_of_int cc.Compiler.Driver.relocated_blocks);
  (c, s)
