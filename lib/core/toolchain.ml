type compiled = { cc : Compiler.Driver.output; image : Isa.Program.image }

let compile ?options ?memmap src =
  let cc, image = Compiler.Driver.compile_to_image ?options ?memmap src in
  { cc; image }

(* ------------------------------------------------------------------ *)
(* Shared compiled artifacts.

   A design-space sweep simulates the same program under many machine
   configurations: the (source, compile-options, memmap) triple is
   identical across the sweep points, so compiling per job is pure
   waste — and in a parallel campaign it is the dominant per-job cost
   and the dominant source of cross-domain allocation (every compile
   rebuilds the whole IR).  An [Artifacts.t] is a compile-once cache:
   the first job with a given key compiles, concurrent jobs with the
   same key block on the condition variable until the artifact is
   ready, and everyone simulates against the same read-only [compiled]
   value.  That is safe because nothing downstream mutates it:
   [Xmtsim.Mem.load] blits [image.data_words] into a fresh store per
   machine, and the race checker's static analysis only reads [cc]. *)

module Artifacts = struct
  type key = {
    k_source : string;
    k_options : Compiler.Driver.options;
    k_memmap : Isa.Memmap.t;
  }

  type slot = Building | Ready of compiled

  type t = {
    tbl : (key, slot) Hashtbl.t;
    lock : Mutex.t;
    turned : Condition.t;  (** signaled whenever a slot changes state *)
    mutable hits : int;
    mutable misses : int;
  }

  let create () =
    {
      tbl = Hashtbl.create 16;
      lock = Mutex.create ();
      turned = Condition.create ();
      hits = 0;
      misses = 0;
    }

  (* Compile [src] or reuse a previous compile of the same key.  A
     failing compile removes its Building slot and re-raises, so a
     retry (or the next job with the key) compiles again — cached
     failures would break the campaign engine's per-job retry
     semantics. *)
  let get t ?(options = Compiler.Driver.default_options) ?(memmap = []) src =
    let key = { k_source = src; k_options = options; k_memmap = memmap } in
    Mutex.lock t.lock;
    let rec await () =
      match Hashtbl.find_opt t.tbl key with
      | Some (Ready c) ->
        t.hits <- t.hits + 1;
        Mutex.unlock t.lock;
        c
      | Some Building ->
        Condition.wait t.turned t.lock;
        await ()
      | None -> (
        Hashtbl.replace t.tbl key Building;
        t.misses <- t.misses + 1;
        Mutex.unlock t.lock;
        match compile ~options ~memmap src with
        | c ->
          Mutex.lock t.lock;
          Hashtbl.replace t.tbl key (Ready c);
          Condition.broadcast t.turned;
          Mutex.unlock t.lock;
          c
        | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          Mutex.lock t.lock;
          Hashtbl.remove t.tbl key;
          Condition.broadcast t.turned;
          Mutex.unlock t.lock;
          Printexc.raise_with_backtrace e bt)
    in
    await ()

  (** (cache hits, compiles actually performed) so far. *)
  let stats t =
    Mutex.lock t.lock;
    let r = (t.hits, t.misses) in
    Mutex.unlock t.lock;
    r
end

type run = {
  output : string;
  cycles : int;
  instructions : int;
  events : int;  (** desim events processed (0 in functional mode) *)
  stats : Xmtsim.Stats.t;
  races : Obs.Json.t option;
      (** [xmt.races.v1] report when the run was race-checked *)
  race_findings : Racecheck.Diag.finding list;
      (** the static findings inside [races] ([[]] unless race-checked) *)
  profile : Obs.Json.t option;
      (** [xmt.profile.v1] CPI-stack report when the run was profiled *)
  predict : Obs.Json.t option;
      (** [xmt.predict.v1] report (predict mode only) *)
  prediction : Predict.Model.prediction option;
      (** the model's result behind [predict] *)
  reuse : Xmtsim.Reuseprofile.snapshot option;
      (** the reuse profile [prediction] priced (predict mode only) *)
}

let assemble ?(memmap = []) asm_text =
  let program = Isa.Asm.parse asm_text in
  let cc =
    {
      Compiler.Driver.program;
      asm_text;
      relocated_blocks = 0;
      outlined_source = "";
      timings = [];
      typed = { Xmtc.Tast.globals = []; funcs = [] };
      ir = { Compiler.Ir.funcs = []; data = []; ps_regs = [] };
    }
  in
  { cc; image = Isa.Program.resolve ~extra_data:memmap program }

(* The one place a [run] record is built.  [racecheck] adds the static
   findings, combined with the dynamic detector's [dynamic] report when a
   cycle machine was observed. *)
let run_record ~racecheck ?dynamic ?profile compiled ~output ~cycles
    ~instructions ~events stats =
  let race_findings = if racecheck then Racecheck.analyze compiled.cc else [] in
  {
    output;
    cycles;
    instructions;
    events;
    stats;
    races =
      (if racecheck then Some (Racecheck.report ?dynamic race_findings) else None);
    race_findings;
    profile;
    predict = None;
    prediction = None;
    reuse = None;
  }

type cycle = {
  machine : Xmtsim.Machine.t;
  racedetect : Xmtsim.Racedetect.t option;
  profiler : Xmtsim.Profile.t option;
  program : compiled;
}

let start_cycle ?config ?(racecheck = false) ?(profile = false) ?stream
    ?heartbeat_cycles program =
  let m = Xmtsim.Machine.create ?config program.image in
  let observe probe = ignore (Xmtsim.Machine.attach m probe : unit -> unit) in
  let racedetect = if racecheck then Some (Xmtsim.Racedetect.create ()) else None in
  Option.iter (fun rd -> observe (Xmtsim.Racedetect.probe m rd)) racedetect;
  let profiler = if profile then Some (Xmtsim.Profile.create m) else None in
  Option.iter (fun p -> observe (Xmtsim.Profile.probe p)) profiler;
  Option.iter (fun s -> observe (Xmtsim.Heartbeat.probe ?heartbeat_cycles m s)) stream;
  { machine = m; racedetect; profiler; program }

let finish_cycle c (r : Xmtsim.Machine.result) =
  let stats = Xmtsim.Machine.stats c.machine in
  run_record ~racecheck:(c.racedetect <> None)
    ?dynamic:(Option.map Xmtsim.Racedetect.to_json c.racedetect)
    ?profile:(Option.map (fun p -> Xmtsim.Profile.(to_json (report p))) c.profiler)
    c.program ~output:r.output ~cycles:r.cycles
    ~instructions:(Xmtsim.Stats.total_instrs stats)
    ~events:(Xmtsim.Machine.events_processed c.machine)
    stats

let run_cycle ?config ?racecheck ?profile ?stream ?heartbeat_cycles ?max_cycles
    compiled =
  let c = start_cycle ?config ?racecheck ?profile ?stream ?heartbeat_cycles compiled in
  let r = Xmtsim.Machine.run ?max_cycles c.machine in
  if not r.halted then
    raise (Xmtsim.Machine.Sim_error "cycle budget exhausted before halt");
  finish_cycle c r

(* Functional and predict runs build no cycle machine: [events] is 0 and
   the race layer is static only. *)
let serial_run ~racecheck compiled (r : Xmtsim.Functional_mode.result) =
  run_record ~racecheck compiled ~output:r.output ~cycles:0
    ~instructions:r.instructions ~events:0 r.stats

let run_functional ?(racecheck = false) ?max_instructions compiled =
  serial_run ~racecheck compiled
    (Xmtsim.Functional_mode.run ?max_instructions compiled.image)

(* Predict mode: one functional pass harvests a reuse profile, the
   analytical model prices it. *)
let run_predict ?config ?(racecheck = false) ?calibration ?max_instructions
    compiled =
  let config =
    Xmtsim.Config.checked (Option.value config ~default:Xmtsim.Config.fpga64)
  in
  let cal =
    match calibration with
    | None -> Predict.Calibrate.default
    | Some file -> Predict.Calibrate.load_file file
  in
  let rp = Xmtsim.Reuseprofile.create () in
  let r =
    Xmtsim.Functional_mode.run ?max_instructions ~profile:rp compiled.image
  in
  let snap = Xmtsim.Reuseprofile.snapshot rp in
  let pred =
    Predict.Model.predict ~coeffs:cal.Predict.Calibrate.coeffs
      ~residual_std_pct:cal.Predict.Calibrate.residual_std_pct ~config snap
  in
  {
    (serial_run ~racecheck compiled r) with
    cycles = pred.Predict.Model.predicted_cycles;
    predict =
      Some
        (Predict.Model.to_json
           ~calibration:(Predict.Calibrate.summary_json cal)
           ~config_name:config.Xmtsim.Config.name pred);
    prediction = Some pred;
    reuse = Some snap;
  }

(* ------------------------------------------------------------------ *)
(* The job-oriented surface: everything one compile+simulate needs,
   reified as data.  The campaign engine and the benches construct jobs;
   [exec] below is a thin wrapper over [run_job]. *)

type mode = Cycle | Functional | Predict

let mode_name = function
  | Cycle -> "cycle"
  | Functional -> "functional"
  | Predict -> "predict"

type job = {
  job_name : string;
  source : string;  (** XMTC source text *)
  options : Compiler.Driver.options;
  memmap : Isa.Memmap.t;
  config : Xmtsim.Config.t;
  mode : mode;
  seed : int option;
      (** deterministic per-job RNG seed; overrides [config.seed] *)
  max_cycles : int option;  (** cycle-mode budget *)
  max_instructions : int option;  (** functional-mode budget *)
  racecheck : bool;  (** attach the race checker; report in [run.races] *)
  profile : bool;
      (** attach the cycle-accounting profiler; report in [run.profile] *)
  calibration : string option;
      (** predict-mode calibration artifact path; [None] = built-in fit *)
}

let job ?(name = "") ?(options = Compiler.Driver.default_options)
    ?(memmap = []) ?(config = Xmtsim.Config.fpga64) ?(mode = Cycle) ?seed
    ?max_cycles ?max_instructions ?(racecheck = false) ?(profile = false)
    ?calibration source =
  {
    job_name = name;
    source;
    options;
    memmap;
    config;
    mode;
    seed;
    max_cycles;
    max_instructions;
    racecheck;
    profile;
    calibration;
  }

(** The configuration a job actually simulates with: the per-job seed
    folded in, then validated — an inconsistent sweep point fails here,
    before the machine is built. *)
let job_config j =
  let c =
    match j.seed with
    | None -> j.config
    | Some seed -> { j.config with Xmtsim.Config.seed }
  in
  Xmtsim.Config.checked c

let run_job ?artifacts ?stream ?heartbeat_cycles j =
  let compile_job () =
    match artifacts with
    | None -> compile ~options:j.options ~memmap:j.memmap j.source
    | Some a -> Artifacts.get a ~options:j.options ~memmap:j.memmap j.source
  in
  match j.mode with
  | Functional ->
    let compiled = compile_job () in
    run_functional ~racecheck:j.racecheck ?max_instructions:j.max_instructions
      compiled
  | Cycle ->
    let config = job_config j in
    let compiled = compile_job () in
    run_cycle ~config ~racecheck:j.racecheck ~profile:j.profile ?stream
      ?heartbeat_cycles ?max_cycles:j.max_cycles compiled
  | Predict ->
    let config = job_config j in
    let compiled = compile_job () in
    run_predict ~config ~racecheck:j.racecheck ?calibration:j.calibration
      ?max_instructions:j.max_instructions compiled

let exec ?options ?memmap ?config ?stream ?(functional = false) src =
  run_job ?stream
    (job ?options ?memmap ?config
       ~mode:(if functional then Functional else Cycle)
       src)

let machine ?config compiled = Xmtsim.Machine.create ?config compiled.image

let read_global m compiled name len =
  let addr = Isa.Program.address_of compiled.image name in
  Array.init len (fun i ->
      Isa.Value.to_int (Xmtsim.Mem.read (Xmtsim.Machine.mem m) (addr + (4 * i))))
